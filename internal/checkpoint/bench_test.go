package checkpoint

import (
	"bytes"
	"io"
	"sync"
	"testing"

	"repro/internal/config"
	"repro/internal/shard"
)

// The recorded format comparison (BENCH_compact.json, CI bench-smoke):
// encode and decode throughput and bytes on the wire for the legacy
// monolithic v1 format against framed v2, raw and flate-compressed, at the
// acceptance shape n = 2²⁵, S = 8. The state is a dense balanced run a few
// rounds in — every shard at uint8 storage width, the steady state the
// Θ(log n) max-load bound makes typical.
const (
	benchN      = 1 << 25
	benchShards = 8
)

var benchSnap = sync.OnceValue(func() *Snapshot {
	p, err := shard.NewProcess(config.OnePerBin(benchN), 7, shard.Options{Shards: benchShards})
	if err != nil {
		panic(err)
	}
	defer p.Close()
	pipe, err := shard.NewPipeline([]float64{0.5, 0.99})
	if err != nil {
		panic(err)
	}
	for i := 0; i < 3; i++ {
		p.Step()
		pipe.Observe(p)
	}
	eng, err := p.Snapshot()
	if err != nil {
		panic(err)
	}
	return &Snapshot{Seed: 7, Engine: eng, Observer: pipe.Snapshot()}
})

func benchEncode(b *testing.B, save func(w io.Writer, snap *Snapshot) error) {
	snap := benchSnap()
	b.SetBytes(int64(benchN)) // throughput in bins/s
	b.ResetTimer()
	var wire int64
	for i := 0; i < b.N; i++ {
		cw := countingWriter{w: io.Discard}
		if err := save(&cw, snap); err != nil {
			b.Fatal(err)
		}
		wire = cw.n
	}
	b.ReportMetric(float64(wire), "wire-bytes")
}

func BenchmarkEncodeV1(b *testing.B) {
	benchEncode(b, saveV1)
}

func BenchmarkEncodeV2Raw(b *testing.B) {
	benchEncode(b, func(w io.Writer, snap *Snapshot) error {
		return SaveOptions(w, snap, Options{})
	})
}

func BenchmarkEncodeV2Flate(b *testing.B) {
	benchEncode(b, func(w io.Writer, snap *Snapshot) error {
		return SaveOptions(w, snap, Options{Compress: true})
	})
}

func benchDecode(b *testing.B, save func(w io.Writer, snap *Snapshot) error) {
	var buf bytes.Buffer
	if err := save(&buf, benchSnap()); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(benchN))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Load(bytes.NewReader(buf.Bytes())); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecodeV1(b *testing.B) {
	benchDecode(b, saveV1)
}

func BenchmarkDecodeV2Raw(b *testing.B) {
	benchDecode(b, func(w io.Writer, snap *Snapshot) error {
		return SaveOptions(w, snap, Options{})
	})
}

func BenchmarkDecodeV2Flate(b *testing.B) {
	benchDecode(b, func(w io.Writer, snap *Snapshot) error {
		return SaveOptions(w, snap, Options{Compress: true})
	})
}

// BenchmarkCheckpointWrite compares the two ways of writing one in-process
// checkpoint at the stationary shape n = 2²², S = 8 (a dense one-per-bin
// run a few rounds in): gather copies every shard out as a
// shard.EngineSnapshot ([]int32 loads) and encodes that with SaveOptions;
// live encodes the frames straight from the shards, as Run does. Both
// write the same bytes to a counting writer, so the pair isolates the
// encode path; B/op is the gather's 4n-byte copy against about one frame
// per encoder.
func BenchmarkCheckpointWrite(b *testing.B) {
	const n, shards = 1 << 22, 8
	p, err := shard.NewProcess(config.OnePerBin(n), 7, shard.Options{Shards: shards})
	if err != nil {
		b.Fatal(err)
	}
	defer p.Close()
	pipe, err := shard.NewPipeline([]float64{0.5, 0.99})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		p.Step()
		pipe.Observe(p)
	}
	obs := pipe.Snapshot()
	for _, bc := range []struct {
		name  string
		write func(w io.Writer) error
	}{
		{"gather", func(w io.Writer) error {
			eng, err := p.Snapshot()
			if err != nil {
				return err
			}
			return SaveOptions(w, &Snapshot{Seed: 7, Engine: eng, Observer: obs}, Options{})
		}},
		{"live", func(w io.Writer) error {
			return writeProcess(w, p, 7, obs, Options{})
		}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.SetBytes(n) // throughput in bins/s
			b.ReportAllocs()
			var wire int64
			for i := 0; i < b.N; i++ {
				cw := countingWriter{w: io.Discard}
				if err := bc.write(&cw); err != nil {
					b.Fatal(err)
				}
				wire = cw.n
			}
			b.ReportMetric(float64(wire), "wire-bytes")
		})
	}
}
