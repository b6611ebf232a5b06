package checkpoint

import (
	"bufio"
	"bytes"
	"compress/flate"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"hash/crc32"
	"io"
	"math"
	"runtime"
	"slices"

	"repro/internal/shard"
)

// Fixed sizes of the v2 framing (see the package comment for the layout).
const (
	headerSize      = 48 // magic .. round (44 bytes) + header CRC
	frameHeaderSize = 15 // kind, index, width, enc, plen
	// maxObserverPayload bounds the raw observer frame payload: the fixed
	// accumulators plus maxQuantiles sketches of 17 f64/u64 fields each.
	maxObserverPayload = 64 + maxQuantiles*(16+15*8)
)

// maxCompressedLen bounds how large a flate stream over raw bytes can be:
// stored blocks add ~5 bytes per 64 KiB plus small constants, so anything
// past this slack is corruption, rejected before a byte of it is read.
func maxCompressedLen(raw uint64) uint64 { return raw + raw/8 + 64 }

// Header is the fixed v2 preamble: everything needed to size and validate
// the frames that follow. WriteHeader/ReadHeader exist so the
// multi-process transport can emit a checkpoint stream without the
// coordinator ever holding more than one relayed frame.
type Header struct {
	// Seed is the run's master seed (provenance).
	Seed uint64
	// N is the number of bins.
	N int
	// Shards is the shard count S.
	Shards int
	// Round is the number of completed rounds at the cut.
	Round int64
	// Observer marks that an observer frame follows the shard frames.
	Observer bool
	// Compress marks flate-compressed frame payloads.
	Compress bool
}

// WriteHeader emits the v2 header, CRC included.
func WriteHeader(w io.Writer, h Header) error {
	if h.N < 1 || int64(h.N) > maxBins {
		return fmt.Errorf("checkpoint: %d bins outside [1, %d]", h.N, int64(maxBins))
	}
	if h.Shards < 1 || h.Shards > h.N || h.Shards > maxShards {
		return fmt.Errorf("checkpoint: %d shards for %d bins", h.Shards, h.N)
	}
	if h.Round < 0 {
		return fmt.Errorf("checkpoint: round %d < 0", h.Round)
	}
	var buf [headerSize]byte
	copy(buf[:8], magic[:])
	binary.LittleEndian.PutUint32(buf[8:], Version2)
	binary.LittleEndian.PutUint64(buf[12:], h.Seed)
	binary.LittleEndian.PutUint64(buf[20:], uint64(h.N))
	binary.LittleEndian.PutUint32(buf[28:], uint32(h.Shards))
	var flags uint32
	if h.Observer {
		flags |= flagObserver
	}
	if h.Compress {
		flags |= flagCompress
	}
	binary.LittleEndian.PutUint32(buf[32:], flags)
	binary.LittleEndian.PutUint64(buf[36:], uint64(h.Round))
	binary.LittleEndian.PutUint32(buf[44:], crc32.Checksum(buf[:44], castagnoli))
	if _, err := w.Write(buf[:]); err != nil {
		return fmt.Errorf("checkpoint: save: %w", err)
	}
	return nil
}

// ReadHeader parses and validates a v2 header.
func ReadHeader(r io.Reader) (Header, error) {
	var h Header
	var buf [headerSize]byte
	if _, err := io.ReadFull(r, buf[:]); err != nil {
		return h, fmt.Errorf("checkpoint: truncated header: %w", io.ErrUnexpectedEOF)
	}
	var m [8]byte
	copy(m[:], buf[:8])
	if m != magic {
		return h, errors.New("checkpoint: bad magic (not a checkpoint file)")
	}
	if v := binary.LittleEndian.Uint32(buf[8:12]); v != Version2 {
		return h, fmt.Errorf("checkpoint: format version %d, want %d", v, Version2)
	}
	if binary.LittleEndian.Uint32(buf[44:48]) != crc32.Checksum(buf[:44], castagnoli) {
		return h, fmt.Errorf("checkpoint: header: %w", ErrChecksum)
	}
	h.Seed = binary.LittleEndian.Uint64(buf[12:20])
	n := binary.LittleEndian.Uint64(buf[20:28])
	if n < 1 || n > maxBins {
		return h, fmt.Errorf("checkpoint: %d bins outside [1, %d]", n, int64(maxBins))
	}
	h.N = int(n)
	s := binary.LittleEndian.Uint32(buf[28:32])
	if s < 1 || uint64(s) > n || s > maxShards {
		return h, fmt.Errorf("checkpoint: %d shards for %d bins", s, n)
	}
	h.Shards = int(s)
	flags := binary.LittleEndian.Uint32(buf[32:36])
	if flags&^uint32(flagObserver|flagCompress) != 0 {
		return h, fmt.Errorf("checkpoint: unknown flags %#x", flags)
	}
	h.Observer = flags&flagObserver != 0
	h.Compress = flags&flagCompress != 0
	round := binary.LittleEndian.Uint64(buf[36:44])
	if round > math.MaxInt64 {
		return h, fmt.Errorf("checkpoint: round %d overflows int64", round)
	}
	h.Round = int64(round)
	return h, nil
}

// appendFrame assembles one frame around an already-encoded raw payload,
// compressing it when asked and appending the frame CRC.
func appendFrame(dst []byte, kind byte, index uint32, width byte, compress bool, payload []byte) ([]byte, error) {
	start := len(dst)
	dst = append(dst, make([]byte, frameHeaderSize)...)
	var e frameEncoder
	return e.finish(append(dst, payload...), start, kind, index, width, compress)
}

// frameEncoder assembles v2 frames through buffers — and flate state —
// that it reuses from one frame to the next. The zero value is ready.
type frameEncoder struct {
	buf []byte       // the frame under construction
	z   bytes.Buffer // compressed payload
	fw  *flate.Writer
}

// finish completes the frame b[start:], a reserved frameHeaderSize
// prologue followed by the raw payload: it compresses the payload in place
// when asked, fills in the prologue and appends the frame CRC.
func (e *frameEncoder) finish(b []byte, start int, kind byte, index uint32, width byte, compress bool) ([]byte, error) {
	enc := byte(0)
	if compress {
		e.z.Reset()
		if e.fw == nil {
			fw, err := flate.NewWriter(&e.z, flate.BestSpeed)
			if err != nil {
				return b[:start], fmt.Errorf("checkpoint: save: %w", err)
			}
			e.fw = fw
		} else {
			e.fw.Reset(&e.z)
		}
		_, err := e.fw.Write(b[start+frameHeaderSize:])
		if err == nil {
			err = e.fw.Close()
		}
		if err != nil {
			return b[:start], fmt.Errorf("checkpoint: save: %w", err)
		}
		b = append(b[:start+frameHeaderSize], e.z.Bytes()...)
		enc = 1
	}
	f := b[start:]
	f[0] = kind
	binary.LittleEndian.PutUint32(f[1:], index)
	f[5], f[6] = width, enc
	binary.LittleEndian.PutUint64(f[7:], uint64(len(f)-frameHeaderSize))
	return binary.LittleEndian.AppendUint32(b, crc32.Checksum(f, castagnoli)), nil
}

// liveShardFrame encodes owned shard s of g as one v2 frame straight from
// live shard memory (shard.Group.ShardView) into the encoder's buffer: the
// same bytes AppendShardFrame writes for the shard's SnapshotShard, without
// the []int32/[]uint64 copies. The frame is valid until the encoder's next
// frame.
func (e *frameEncoder) liveShardFrame(g *shard.Group, s int, compress bool) ([]byte, error) {
	v := g.ShardView(s)
	nwords := (v.Size + 63) / 64
	raw := 32 + 8 + v.Size*int(v.Width)/8 + 8 + nwords*8
	b := slices.Grow(e.buf[:0], frameHeaderSize+raw+4)[:frameHeaderSize]
	for _, x := range v.RNG {
		b = binary.LittleEndian.AppendUint64(b, x)
	}
	b = binary.LittleEndian.AppendUint64(b, uint64(v.Size))
	b = v.AppendLoads(b)
	b = binary.LittleEndian.AppendUint64(b, uint64(nwords))
	b, err := v.AppendWork(b)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: shard %d: %w", s, err)
	}
	b, err = e.finish(b, 0, frameShard, uint32(s), v.Width, compress)
	e.buf = b
	return b, err
}

// encodeFrames encodes frames [lo, hi) with encode on up to GOMAXPROCS
// goroutines and hands them to emit in order. Each goroutine encodes
// through a frameEncoder taken from a pool of one per worker and returned
// once its frame is emitted, so the frames in flight — and the frame
// buffers one call allocates — number at most one per worker. After the
// first error emit sees no more frames, but every goroutine is still
// drained so none is left behind.
func encodeFrames(lo, hi int, encode func(e *frameEncoder, i int) ([]byte, error), emit func(frame []byte) error) error {
	workers := min(runtime.GOMAXPROCS(0), hi-lo)
	type result struct {
		e     *frameEncoder
		frame []byte
		err   error
	}
	free := make(chan *frameEncoder, workers)
	for range workers {
		free <- new(frameEncoder)
	}
	// A channel of per-frame channels keeps the output in order. It holds
	// one slot per encoder: the dispatcher cannot run further ahead than
	// the pool lets it anyway.
	frames := make(chan chan result, workers)
	go func() {
		for i := lo; i < hi; i++ {
			ch := make(chan result, 1)
			frames <- ch
			e := <-free
			go func() {
				frame, err := encode(e, i)
				ch <- result{e, frame, err}
			}()
		}
		close(frames)
	}()
	var err error
	for ch := range frames {
		r := <-ch
		if err == nil {
			err = r.err
		}
		if err == nil {
			err = emit(r.frame)
		}
		free <- r.e
	}
	return err
}

// EncodeShards encodes the shards g owns as v2 shard frames straight from
// live shard memory and hands each to emit, in shard order. It is the one
// shard-frame encoder of running engines: checkpoint.Run streams an
// in-process engine's checkpoint through it, and the multi-process workers
// answer a snapshot request with it. Up to GOMAXPROCS shards encode
// concurrently, each encoder reusing one frame buffer, so a call allocates
// about one frame per encoder however many shards g holds. A frame is
// valid only until emit returns. g must be between rounds.
func EncodeShards(g *shard.Group, compress bool, emit func(frame []byte) error) error {
	return encodeFrames(g.Lo(), g.Hi(), func(e *frameEncoder, s int) ([]byte, error) {
		return e.liveShardFrame(g, s, compress)
	}, emit)
}

// AppendShardFrame encodes shard index of an engine snapshot as one v2
// checkpoint frame and appends it to dst. A frame is self-contained — own
// CRC, self-described width and encoding — which is what lets the
// multi-process transport's workers encode their own shards concurrently and stream the
// bytes to a coordinator that only relays them. The stored width is the
// snapshot's recorded storage width; an unrecorded width (a snapshot that
// came from a v1 checkpoint) stores at the narrowest fit, mirroring what
// restore derives.
func AppendShardFrame(dst []byte, sh *shard.ShardSnapshot, index, n, shards int, compress bool) ([]byte, error) {
	if index < 0 || index >= shards {
		return dst, fmt.Errorf("checkpoint: shard index %d outside [0, %d)", index, shards)
	}
	size := shard.PartitionSize(n, shards, index)
	if len(sh.Loads) != size {
		return dst, fmt.Errorf("checkpoint: shard %d holds %d bins, partition wants %d", index, len(sh.Loads), size)
	}
	if nwords := (size + 63) / 64; len(sh.Work) != nwords {
		return dst, fmt.Errorf("checkpoint: shard %d has %d worklist words, want %d", index, len(sh.Work), nwords)
	}
	var maxLoad int32
	for _, l := range sh.Loads {
		if l < 0 {
			return dst, fmt.Errorf("checkpoint: shard %d has negative load %d", index, l)
		}
		maxLoad = max(maxLoad, l)
	}
	width := sh.Width
	if width == 0 {
		width = 8
		for maxLoad > loadLimit(width) {
			width *= 2
		}
	}
	switch width {
	case 8, 16, 32:
		if maxLoad > loadLimit(width) {
			return dst, fmt.Errorf("checkpoint: shard %d max load %d exceeds storage width %d", index, maxLoad, width)
		}
	default:
		return dst, fmt.Errorf("checkpoint: shard %d has invalid storage width %d", index, sh.Width)
	}
	var buf bytes.Buffer
	buf.Grow(32 + 8 + size*int(width)/8 + 8 + len(sh.Work)*8)
	w := &leWriter{w: bufio.NewWriterSize(&buf, 1<<15)}
	writeShardPayload(w, sh, width)
	if w.err == nil {
		w.err = w.w.Flush()
	}
	if w.err != nil {
		return dst, fmt.Errorf("checkpoint: save: %w", w.err)
	}
	return appendFrame(dst, frameShard, uint32(index), width, compress, buf.Bytes())
}

// AppendObserverFrame encodes the observer-pipeline frame of a v2
// checkpoint and appends it to dst.
func AppendObserverFrame(dst []byte, obs *shard.PipelineSnapshot, compress bool) ([]byte, error) {
	if obs == nil {
		return dst, errors.New("checkpoint: nil observer snapshot")
	}
	if len(obs.Sketches) > maxQuantiles {
		return dst, fmt.Errorf("checkpoint: %d quantile sketches exceed %d", len(obs.Sketches), maxQuantiles)
	}
	var buf bytes.Buffer
	w := &leWriter{w: bufio.NewWriterSize(&buf, 1<<12)}
	writeObserverFields(w, obs)
	if w.err == nil {
		w.err = w.w.Flush()
	}
	if w.err != nil {
		return dst, fmt.Errorf("checkpoint: save: %w", w.err)
	}
	return appendFrame(dst, frameObserver, 0, 0, compress, buf.Bytes())
}

// framePayload wires up the streaming parse of one frame's payload: the
// next plen bytes of the stream, CRC-teed, optionally run through flate.
// close verifies exhaustion — the parser must consume exactly the declared
// payload, and a flate stream must end exactly at its last field — so a
// valid frame has precisely one byte encoding.
type framePayload struct {
	lr  *io.LimitedReader
	fr  io.ReadCloser
	src io.Reader
}

func newFramePayload(br io.Reader, crc hash.Hash32, plen uint64, enc byte) *framePayload {
	p := &framePayload{lr: &io.LimitedReader{R: br, N: int64(plen)}}
	p.src = io.TeeReader(p.lr, crc)
	if enc == 1 {
		p.fr = flate.NewReader(p.src)
		p.src = p.fr
	}
	return p
}

func (p *framePayload) close(what string) error {
	if p.fr != nil {
		var b [1]byte
		if k, _ := p.fr.Read(b[:]); k != 0 {
			return fmt.Errorf("checkpoint: %s frame decompresses past its fields", what)
		}
		p.fr.Close()
	}
	if p.lr.N != 0 {
		return fmt.Errorf("checkpoint: %s frame payload has %d trailing bytes", what, p.lr.N)
	}
	return nil
}

// readFrameHeader reads and validates the fixed frame prologue, returning
// the frame CRC with the prologue already folded in. wantEnc < 0 accepts
// either encoding (frames are self-described); otherwise the encoding must
// match the checkpoint header's compress flag.
func readFrameHeader(br io.Reader, wantKind byte, wantEnc int8) (index uint32, width, enc byte, plen uint64, crc hash.Hash32, err error) {
	var hdr [frameHeaderSize]byte
	if _, err = io.ReadFull(br, hdr[:]); err != nil {
		return 0, 0, 0, 0, nil, fmt.Errorf("checkpoint: truncated frame: %w", io.ErrUnexpectedEOF)
	}
	if hdr[0] != wantKind {
		return 0, 0, 0, 0, nil, fmt.Errorf("checkpoint: frame kind %d, want %d", hdr[0], wantKind)
	}
	if hdr[6] > 1 {
		return 0, 0, 0, 0, nil, fmt.Errorf("checkpoint: unknown frame encoding %d", hdr[6])
	}
	if wantEnc >= 0 && hdr[6] != byte(wantEnc) {
		return 0, 0, 0, 0, nil, fmt.Errorf("checkpoint: frame encoding %d does not match header flag %d", hdr[6], wantEnc)
	}
	crc = crc32.New(castagnoli)
	crc.Write(hdr[:])
	return binary.LittleEndian.Uint32(hdr[1:5]), hdr[5], hdr[6],
		binary.LittleEndian.Uint64(hdr[7:15]), crc, nil
}

// readFrameCRC consumes and verifies the frame trailer.
func readFrameCRC(br io.Reader, crc hash.Hash32, what string) error {
	var fc [4]byte
	if _, err := io.ReadFull(br, fc[:]); err != nil {
		return fmt.Errorf("checkpoint: truncated frame: %w", io.ErrUnexpectedEOF)
	}
	if binary.LittleEndian.Uint32(fc[:]) != crc.Sum32() {
		return fmt.Errorf("checkpoint: %s frame: %w", what, ErrChecksum)
	}
	return nil
}

// readShardFrame parses one shard frame from br, streaming: the payload is
// never buffered beyond the decoded slices themselves.
func readShardFrame(br io.Reader, n, s int, wantEnc int8) (int, shard.ShardSnapshot, error) {
	var zero shard.ShardSnapshot
	index, width, enc, plen, crc, err := readFrameHeader(br, frameShard, wantEnc)
	if err != nil {
		return 0, zero, err
	}
	if index >= uint32(s) {
		return 0, zero, fmt.Errorf("checkpoint: frame for shard %d of %d", index, s)
	}
	if width != 8 && width != 16 && width != 32 {
		return 0, zero, fmt.Errorf("checkpoint: shard %d frame has invalid storage width %d", index, width)
	}
	size := shard.PartitionSize(n, s, int(index))
	nwords := (size + 63) / 64
	raw := uint64(32 + 8 + size*int(width)/8 + 8 + nwords*8)
	if enc == 0 && plen != raw {
		return 0, zero, fmt.Errorf("checkpoint: shard %d frame payload %d bytes, want %d", index, plen, raw)
	}
	if enc == 1 && plen > maxCompressedLen(raw) {
		return 0, zero, fmt.Errorf("checkpoint: shard %d compressed payload %d bytes exceeds bound %d", index, plen, maxCompressedLen(raw))
	}
	p := newFramePayload(br, crc, plen, enc)
	sh, err := readShardPayload(&leReader{r: p.src}, n, s, int(index), width)
	if err != nil {
		return 0, zero, err
	}
	if err := p.close(fmt.Sprintf("shard %d", index)); err != nil {
		return 0, zero, err
	}
	if err := readFrameCRC(br, crc, fmt.Sprintf("shard %d", index)); err != nil {
		return 0, zero, err
	}
	return int(index), sh, nil
}

// readObserverFrame parses the observer frame.
func readObserverFrame(br io.Reader, wantEnc int8) (*shard.PipelineSnapshot, error) {
	index, width, enc, plen, crc, err := readFrameHeader(br, frameObserver, wantEnc)
	if err != nil {
		return nil, err
	}
	if index != 0 || width != 0 {
		return nil, fmt.Errorf("checkpoint: observer frame has index %d width %d, want 0 0", index, width)
	}
	bound := uint64(maxObserverPayload)
	if enc == 1 {
		bound = maxCompressedLen(bound)
	}
	if plen > bound {
		return nil, fmt.Errorf("checkpoint: observer payload %d bytes exceeds bound %d", plen, bound)
	}
	p := newFramePayload(br, crc, plen, enc)
	obs, err := readObserverFields(&leReader{r: p.src})
	if err != nil {
		return nil, err
	}
	if err := p.close("observer"); err != nil {
		return nil, err
	}
	if err := readFrameCRC(br, crc, "observer"); err != nil {
		return nil, err
	}
	return obs, nil
}

// DecodeShardFrame parses exactly one shard frame from data — the inverse
// of AppendShardFrame, used by the multi-process transport's workers on
// join payloads. The frame's self-described encoding is honored; data must hold
// the frame and nothing else.
func DecodeShardFrame(data []byte, n, shards int) (int, shard.ShardSnapshot, error) {
	br := bytes.NewReader(data)
	idx, sh, err := readShardFrame(br, n, shards, -1)
	if err != nil {
		return 0, sh, err
	}
	if br.Len() != 0 {
		return 0, sh, fmt.Errorf("checkpoint: %d trailing bytes after shard frame", br.Len())
	}
	return idx, sh, nil
}

// Save serializes snap to dst in the current format (v2, uncompressed).
// The byte stream is a pure function of the snapshot contents (no
// timestamps, no padding entropy), so two runs that reach the same state
// produce byte-identical checkpoints — the CI resume-equivalence gate
// compares files with cmp for exactly this reason.
func Save(dst io.Writer, snap *Snapshot) error { return SaveOptions(dst, snap, Options{}) }

// SaveOptions is Save with explicit serialization options. Shard frames
// are encoded concurrently (bounded window, GOMAXPROCS goroutines) and
// written in shard order; with S shards on C cores the encode runs at
// roughly min(S, C)× the single-thread rate, which matters at n = 2³⁰
// where a checkpoint is gigabytes even at width 8.
func SaveOptions(dst io.Writer, snap *Snapshot, opts Options) error {
	if err := snap.validate(); err != nil {
		return err
	}
	eng := snap.Engine
	h := Header{
		Seed:     snap.Seed,
		N:        eng.N,
		Shards:   len(eng.Shards),
		Round:    eng.Round,
		Observer: snap.Observer != nil,
		Compress: opts.Compress,
	}
	return writeFramed(dst, h, snap.Observer, func(e *frameEncoder, i int) ([]byte, error) {
		frame, err := AppendShardFrame(e.buf[:0], &eng.Shards[i], i, eng.N, len(eng.Shards), opts.Compress)
		e.buf = frame
		return frame, err
	})
}

// writeProcess streams the checkpoint of the in-process run p to dst,
// every shard frame encoded straight from live shard memory (the encoder
// of EncodeShards). The bytes equal SaveOptions over p.Snapshot(), without
// the whole-run []int32 gather.
func writeProcess(dst io.Writer, p *shard.Process, seed uint64, obs *shard.PipelineSnapshot, opts Options) error {
	h := Header{
		Seed:     seed,
		N:        p.N(),
		Shards:   p.Shards(),
		Round:    p.Round(),
		Observer: obs != nil,
		Compress: opts.Compress,
	}
	g := p.Group()
	return writeFramed(dst, h, obs, func(fe *frameEncoder, s int) ([]byte, error) {
		return fe.liveShardFrame(g, s, opts.Compress)
	})
}

// writeFramed writes one v2 checkpoint to dst: the header h, the h.Shards
// shard frames that encode produces (through encodeFrames, in shard
// order), and the observer frame when obs is non-nil.
func writeFramed(dst io.Writer, h Header, obs *shard.PipelineSnapshot, encode func(e *frameEncoder, i int) ([]byte, error)) error {
	bw := bufio.NewWriterSize(dst, 1<<16)
	if err := WriteHeader(bw, h); err != nil {
		return err
	}
	err := encodeFrames(0, h.Shards, encode, func(frame []byte) error {
		_, err := bw.Write(frame)
		return err
	})
	if err == nil && obs != nil {
		var buf []byte
		if buf, err = AppendObserverFrame(nil, obs, h.Compress); err == nil {
			_, err = bw.Write(buf)
		}
	}
	if err == nil {
		err = bw.Flush()
	}
	if err != nil {
		return fmt.Errorf("checkpoint: save: %w", err)
	}
	return nil
}

// loadV2 parses the framed format (the 12 peeked magic/version bytes are
// still unconsumed; ReadHeader re-reads them from the buffer).
func loadV2(br *bufio.Reader) (*Snapshot, error) {
	h, err := ReadHeader(br)
	if err != nil {
		return nil, err
	}
	wantEnc := int8(0)
	if h.Compress {
		wantEnc = 1
	}
	eng := &shard.EngineSnapshot{
		N:      h.N,
		Round:  h.Round,
		Shards: make([]shard.ShardSnapshot, h.Shards),
	}
	for i := range eng.Shards {
		idx, sh, err := readShardFrame(br, h.N, h.Shards, wantEnc)
		if err != nil {
			return nil, err
		}
		if idx != i {
			return nil, fmt.Errorf("checkpoint: frame for shard %d, want %d (frames are in shard order)", idx, i)
		}
		eng.Shards[i] = sh
	}
	var obs *shard.PipelineSnapshot
	if h.Observer {
		if obs, err = readObserverFrame(br, wantEnc); err != nil {
			return nil, err
		}
	}
	// The last frame must end the stream: trailing bytes would break the
	// one-state-one-encoding property the CI cmp gate and FuzzLoad rely on.
	if _, err := br.ReadByte(); err == nil {
		return nil, errors.New("checkpoint: trailing data after last frame")
	} else if err != io.EOF {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	snap := &Snapshot{Seed: h.Seed, Engine: eng, Observer: obs}
	if err := snap.validate(); err != nil {
		return nil, err
	}
	return snap, nil
}
