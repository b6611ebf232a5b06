package checkpoint

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"

	"repro/internal/shard"
	"repro/internal/stats"
)

// castagnoli is the CRC-32C polynomial table (hardware-accelerated on
// amd64/arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// leWriter serializes little-endian values into a buffered, CRC-teed
// writer, latching the first error.
type leWriter struct {
	w   *bufio.Writer
	err error
	buf [8]byte
}

func (w *leWriter) bytes(p []byte) {
	if w.err != nil {
		return
	}
	_, w.err = w.w.Write(p)
}

func (w *leWriter) u64(v uint64) {
	binary.LittleEndian.PutUint64(w.buf[:8], v)
	w.bytes(w.buf[:8])
}

func (w *leWriter) u32(v uint32) {
	binary.LittleEndian.PutUint32(w.buf[:4], v)
	w.bytes(w.buf[:4])
}

func (w *leWriter) i32(v int32)   { w.u32(uint32(v)) }
func (w *leWriter) f64(v float64) { w.u64(math.Float64bits(v)) }

func (w *leWriter) bool(v bool) {
	b := byte(0)
	if v {
		b = 1
	}
	w.bytes([]byte{b})
}

// loads writes the load vector at the given storage width (8, 16 or 32
// bits per bin, unsigned below 32). Narrow widths go out in bulk chunks:
// the per-value function-call overhead of the v1 int32 path is most of its
// encode cost, and the chunked form is what makes narrow checkpoints
// faster to write, not just smaller. Values must fit the width (the caller
// range-checks against loadLimit).
func (w *leWriter) loads(ls []int32, width uint8) {
	var buf [4096]byte
	switch width {
	case 8:
		for len(ls) > 0 && w.err == nil {
			k := min(len(ls), len(buf))
			for i, v := range ls[:k] {
				buf[i] = byte(v)
			}
			w.bytes(buf[:k])
			ls = ls[k:]
		}
	case 16:
		for len(ls) > 0 && w.err == nil {
			k := min(len(ls), len(buf)/2)
			for i, v := range ls[:k] {
				binary.LittleEndian.PutUint16(buf[2*i:], uint16(v))
			}
			w.bytes(buf[:2*k])
			ls = ls[k:]
		}
	default:
		for _, v := range ls {
			w.i32(v)
		}
	}
}

// loadLimit is the largest load storable at a width.
func loadLimit(width uint8) int32 {
	switch width {
	case 8:
		return math.MaxUint8
	case 16:
		return math.MaxUint16
	default:
		return math.MaxInt32
	}
}

// writeShardPayload serializes one shard's state: rng stream state, bin
// count, loads at the given width, worklist words. At width 32 the bytes
// are exactly a v1 shard section, which is what makes a v2 width-32
// uncompressed frame payload byte-identical to its v1 counterpart.
func writeShardPayload(w *leWriter, sh *shard.ShardSnapshot, width uint8) {
	for _, v := range sh.RNG {
		w.u64(v)
	}
	w.u64(uint64(len(sh.Loads)))
	w.loads(sh.Loads, width)
	w.u64(uint64(len(sh.Work)))
	for _, v := range sh.Work {
		w.u64(v)
	}
}

// writeObserverFields serializes the observer-pipeline accumulators (the
// v1 observer section and the v2 observer frame payload share this layout).
func writeObserverFields(w *leWriter, obs *shard.PipelineSnapshot) {
	w.u64(uint64(obs.Rounds))
	w.i32(obs.WindowMax)
	w.bool(obs.WindowAny)
	w.f64(obs.EmptyMin)
	w.f64(obs.EmptySum)
	w.u64(uint64(obs.EmptyRounds))
	w.u32(uint32(len(obs.Sketches)))
	for _, st := range obs.Sketches {
		w.f64(st.P)
		w.u64(uint64(st.Count))
		for _, v := range st.Q {
			w.f64(v)
		}
		for _, v := range st.Pos {
			w.f64(v)
		}
		for _, v := range st.Want {
			w.f64(v)
		}
	}
}

// leReader deserializes little-endian values from a CRC-teed reader,
// latching the first error. Truncation surfaces as a wrapped
// io.ErrUnexpectedEOF.
type leReader struct {
	r   io.Reader
	err error
	buf [8]byte
}

func (r *leReader) read(n int) []byte {
	if r.err == nil {
		if _, err := io.ReadFull(r.r, r.buf[:n]); err != nil {
			if err == io.EOF || err == io.ErrUnexpectedEOF {
				err = fmt.Errorf("checkpoint: truncated input: %w", io.ErrUnexpectedEOF)
			}
			r.err = err
			for i := range r.buf {
				r.buf[i] = 0
			}
		}
	}
	return r.buf[:n]
}

// full reads len(p) bytes, latching truncation like read.
func (r *leReader) full(p []byte) {
	if r.err != nil {
		return
	}
	if _, err := io.ReadFull(r.r, p); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			err = fmt.Errorf("checkpoint: truncated input: %w", io.ErrUnexpectedEOF)
		}
		r.err = err
	}
}

func (r *leReader) u64() uint64 { return binary.LittleEndian.Uint64(r.read(8)) }
func (r *leReader) u32() uint32 { return binary.LittleEndian.Uint32(r.read(4)) }

func (r *leReader) i64(what string) int64 {
	v := r.u64()
	if r.err == nil && v > math.MaxInt64 {
		r.err = fmt.Errorf("checkpoint: %s %d overflows int64", what, v)
	}
	return int64(v)
}

func (r *leReader) f64() float64 { return math.Float64frombits(r.u64()) }

func (r *leReader) bool() bool {
	b := r.read(1)[0]
	if r.err == nil && b > 1 {
		r.err = fmt.Errorf("checkpoint: invalid bool byte %d", b)
	}
	return b == 1
}

// i32Slice reads n int32 values in bounded chunks: the slice grows with the
// bytes actually present, so a corrupted header demanding a huge count
// errors out on truncation long before it can demand a huge allocation.
func (r *leReader) i32Slice(n int) []int32 {
	const chunk = 1 << 16
	out := make([]int32, 0, min(n, chunk))
	for len(out) < n && r.err == nil {
		out = append(out, int32(r.u32()))
	}
	return out
}

// u64Slice is the uint64 analogue of i32Slice.
func (r *leReader) u64Slice(n int) []uint64 {
	const chunk = 1 << 13
	out := make([]uint64, 0, min(n, chunk))
	for len(out) < n && r.err == nil {
		out = append(out, r.u64())
	}
	return out
}

// loadSlice reads n loads stored at the given width, widening to int32.
// Narrow widths read in bulk chunks (mirroring leWriter.loads); the output
// grows with the bytes actually present, like i32Slice.
func (r *leReader) loadSlice(n int, width uint8) []int32 {
	if width == 32 {
		return r.i32Slice(n)
	}
	const chunk = 1 << 12
	var buf [2 * chunk]byte
	out := make([]int32, 0, min(n, chunk))
	for len(out) < n && r.err == nil {
		k := min(n-len(out), chunk)
		if width == 8 {
			b := buf[:k]
			r.full(b)
			if r.err != nil {
				break
			}
			for _, v := range b {
				out = append(out, int32(v))
			}
		} else {
			b := buf[:2*k]
			r.full(b)
			if r.err != nil {
				break
			}
			for i := 0; i < k; i++ {
				out = append(out, int32(binary.LittleEndian.Uint16(b[2*i:])))
			}
		}
	}
	return out
}

// readShardPayload parses one shard's state (a v1 section or a v2 frame
// payload), validating partition arithmetic, rng non-degeneracy and load
// range. The returned snapshot records the storage width it was read at.
func readShardPayload(r *leReader, n, s, i int, width uint8) (shard.ShardSnapshot, error) {
	var sh shard.ShardSnapshot
	for j := range sh.RNG {
		sh.RNG[j] = r.u64()
	}
	if r.err == nil && sh.RNG[0]|sh.RNG[1]|sh.RNG[2]|sh.RNG[3] == 0 {
		return sh, fmt.Errorf("checkpoint: shard %d has all-zero rng state", i)
	}
	size := shard.PartitionSize(n, s, i)
	if got := r.u64(); r.err == nil && got != uint64(size) {
		return sh, fmt.Errorf("checkpoint: shard %d holds %d bins, partition wants %d", i, got, size)
	}
	sh.Loads = r.loadSlice(size, width)
	if width == 32 {
		// Narrower widths are unsigned on the wire, so only the int32 form
		// can smuggle a negative load.
		for _, l := range sh.Loads {
			if l < 0 {
				return sh, fmt.Errorf("checkpoint: shard %d has negative load %d", i, l)
			}
		}
	}
	nwords := (size + 63) / 64
	if got := r.u64(); r.err == nil && got != uint64(nwords) {
		return sh, fmt.Errorf("checkpoint: shard %d has %d worklist words, want %d", i, got, nwords)
	}
	sh.Work = r.u64Slice(nwords)
	if r.err != nil {
		return sh, r.err
	}
	sh.Width = width
	return sh, nil
}

// readObserverFields parses the observer accumulators (shared by the v1
// section and the v2 frame payload).
func readObserverFields(r *leReader) (*shard.PipelineSnapshot, error) {
	obs := &shard.PipelineSnapshot{}
	obs.Rounds = r.i64("observer rounds")
	obs.WindowMax = int32(r.u32())
	obs.WindowAny = r.bool()
	obs.EmptyMin = r.f64()
	obs.EmptySum = r.f64()
	obs.EmptyRounds = r.i64("observer empty rounds")
	nq := r.u32()
	if r.err == nil && nq > maxQuantiles {
		return nil, fmt.Errorf("checkpoint: %d quantile sketches exceed %d", nq, maxQuantiles)
	}
	for q := uint32(0); q < nq && r.err == nil; q++ {
		var st stats.P2State
		st.P = r.f64()
		st.Count = r.i64("sketch count")
		for j := range st.Q {
			st.Q[j] = r.f64()
		}
		for j := range st.Pos {
			st.Pos[j] = r.f64()
		}
		for j := range st.Want {
			st.Want[j] = r.f64()
		}
		obs.Sketches = append(obs.Sketches, st)
	}
	if r.err != nil {
		return nil, r.err
	}
	if obs.WindowMax < 0 {
		return nil, fmt.Errorf("checkpoint: negative observer window max %d", obs.WindowMax)
	}
	return obs, nil
}

// Load deserializes one checkpoint from src — either format version —
// validating every field and every CRC; the stream must end exactly where
// the format says it does (a checkpoint is a whole file, not a stream
// prefix). Corrupted or truncated input yields an error; Load never panics
// and never allocates more than a constant factor of the bytes actually
// read. The returned snapshot still goes through the structural
// re-validation of shard.RestoreProcess when it is turned back into a live
// process.
func Load(src io.Reader) (*Snapshot, error) {
	br := bufio.NewReaderSize(src, 1<<16)
	pre, _ := br.Peek(12)
	if len(pre) >= 8 {
		var m [8]byte
		copy(m[:], pre)
		if m != magic {
			return nil, errors.New("checkpoint: bad magic (not a checkpoint file)")
		}
	}
	if len(pre) < 12 {
		return nil, fmt.Errorf("checkpoint: truncated input: %w", io.ErrUnexpectedEOF)
	}
	switch ver := binary.LittleEndian.Uint32(pre[8:12]); ver {
	case Version1:
		return loadV1(br)
	case Version2:
		return loadV2(br)
	default:
		return nil, fmt.Errorf("checkpoint: unsupported format version %d (want %d or %d)", ver, Version1, Version2)
	}
}

// loadV1 parses the legacy monolithic format. The CRC trailer covers the
// whole stream from the magic on, so the magic and version are re-read
// through the tee here (Load only peeked at them).
func loadV1(br *bufio.Reader) (*Snapshot, error) {
	crc := crc32.New(castagnoli)
	r := &leReader{r: io.TeeReader(br, crc)}

	r.read(8) // magic, validated by Load
	r.u32()   // version, dispatched by Load
	seed := r.u64()
	n := r.u64()
	if r.err == nil && (n < 1 || n > maxBins) {
		return nil, fmt.Errorf("checkpoint: %d bins outside [1, %d]", n, int64(maxBins))
	}
	s := r.u32()
	if r.err == nil && (s < 1 || uint64(s) > n || s > maxShards) {
		return nil, fmt.Errorf("checkpoint: %d shards for %d bins", s, n)
	}
	flags := r.u32()
	if r.err == nil && flags&^uint32(flagObserver) != 0 {
		return nil, fmt.Errorf("checkpoint: unknown flags %#x", flags)
	}
	round := r.i64("round")
	if r.err != nil {
		return nil, r.err
	}

	eng := &shard.EngineSnapshot{
		N:      int(n),
		Round:  round,
		Shards: make([]shard.ShardSnapshot, s),
	}
	for i := range eng.Shards {
		sh, err := readShardPayload(r, int(n), int(s), i, 32)
		if err != nil {
			return nil, err
		}
		// v1 records no storage width; leave it unrecorded so restore
		// re-derives the narrowest fit.
		sh.Width = 0
		eng.Shards[i] = sh
	}

	var obs *shard.PipelineSnapshot
	if flags&flagObserver != 0 {
		var err error
		if obs, err = readObserverFields(r); err != nil {
			return nil, err
		}
	}

	sum := crc.Sum32()
	var trailer [4]byte
	if _, err := io.ReadFull(br, trailer[:]); err != nil {
		return nil, fmt.Errorf("checkpoint: truncated trailer: %w", io.ErrUnexpectedEOF)
	}
	if binary.LittleEndian.Uint32(trailer[:]) != sum {
		return nil, ErrChecksum
	}
	// The trailer must end the stream: trailing bytes would break the
	// one-state-one-encoding property the CI cmp gate and FuzzLoad rely on.
	if _, err := br.ReadByte(); err == nil {
		return nil, errors.New("checkpoint: trailing data after trailer")
	} else if err != io.EOF {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	snap := &Snapshot{Seed: seed, Engine: eng, Observer: obs}
	if err := snap.validate(); err != nil {
		return nil, err
	}
	return snap, nil
}
