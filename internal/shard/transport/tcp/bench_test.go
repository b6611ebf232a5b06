package tcp_test

import (
	"bytes"
	"io"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/config"
	"repro/internal/engine"
	"repro/internal/shard/transport/tcp"
)

// The recorded end-to-end checkpoint-encode comparison under the
// multi-process transport (BENCH_compact.json), on the loopback mesh: the
// streamed path — every worker encodes its own shards as v2 frames in
// parallel, the coordinator relays bytes — against the gather-then-encode
// shape of the pre-v2 protocol, where the coordinator first materializes
// the whole EngineSnapshot and then serializes it centrally. The gather
// baseline rides today's streaming plumbing, so it is if anything faster
// than the true historical path; the recorded ratio is conservative.
// Acceptance shape: n = 2²⁵, S = 8, P = 4.
const (
	benchN      = 1 << 25
	benchShards = 8
	benchProcs  = 4
)

// countWriter measures bytes on the wire without buffering them.
type countWriter struct{ n int64 }

func (w *countWriter) Write(p []byte) (int, error) {
	w.n += int64(len(p))
	return len(p), nil
}

func benchEngine(b *testing.B, width engine.Width) *tcp.Engine {
	b.Helper()
	e, err := tcp.NewProcess(config.OnePerBin(benchN), 7,
		tcp.Options{Shards: benchShards, Procs: benchProcs, Width: width, Mesh: true})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { e.Close() })
	for r := 0; r < 3; r++ {
		e.Step()
	}
	return e
}

func benchStream(b *testing.B, opts checkpoint.Options) {
	e := benchEngine(b, engine.WidthAuto)
	b.SetBytes(int64(benchN))
	b.ResetTimer()
	var wire int64
	for i := 0; i < b.N; i++ {
		var cw countWriter
		if err := e.StreamCheckpoint(&cw, 7, nil, opts); err != nil {
			b.Fatal(err)
		}
		wire = cw.n
	}
	b.ReportMetric(float64(wire), "wire-bytes")
}

func BenchmarkMeshStreamV2Raw(b *testing.B) {
	benchStream(b, checkpoint.Options{})
}

func BenchmarkMeshStreamV2Flate(b *testing.B) {
	benchStream(b, checkpoint.Options{Compress: true})
}

// BenchmarkMeshGatherEncode reconstructs the pre-v2 end-to-end shape with
// today's plumbing: load state pinned at int32 (the pre-compaction
// representation, 4× the wire bytes), the whole EngineSnapshot gathered
// and decoded at the coordinator, then serialized centrally in one pass.
func BenchmarkMeshGatherEncode(b *testing.B) {
	e := benchEngine(b, engine.Width32)
	b.SetBytes(int64(benchN))
	b.ResetTimer()
	var buf bytes.Buffer
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := e.StreamCheckpoint(&buf, 7, nil, checkpoint.Options{}); err != nil {
			b.Fatal(err)
		}
		snap, err := checkpoint.Load(&buf)
		if err != nil {
			b.Fatal(err)
		}
		if err := checkpoint.Save(io.Discard, snap); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMeshStepDense keeps a round-throughput number next to the
// encode pair so a regression in the hot loop cannot hide behind
// checkpoint wins.
func BenchmarkMeshStepDense(b *testing.B) {
	e := benchEngine(b, engine.WidthAuto)
	b.SetBytes(int64(benchN))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
}
