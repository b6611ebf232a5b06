package tcp

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"repro/internal/obs"
	"repro/internal/shard"
)

// ProtoVersion is the wire protocol version, checked at worker join so a
// mixed-binary deployment fails loudly instead of desynchronizing.
// Version 3 moved the framing out of the (since retired) pipes transport
// and added the arrival rule to the init frame, the released/staged counts
// to the stats frame, and the roster/ready/peer frames of the
// worker↔worker mesh. Version 4 added the dense-round kernel byte to the
// init frame (after the width floor).
const ProtoVersion = 4

// Message types. Every frame is one type byte followed by a type-specific
// payload; the per-message layouts are documented next to their writers.
const (
	mInit        byte = iota + 1 // c→w: version, lo, hi, workers, width floor, kernel, arrival rule, mesh flag, v2 header + owned shard frames
	mInitOK                      // w→c: join acknowledged + resident load bytes + peer-listen address (empty in star mode)
	mStep                        // c→w: run the release phase (mesh: the whole round)
	mExchange                    // w→c (star): remote-destined buffers
	mCommit                      // c→w (star): inbound buffers; run the commit phase
	mStats                       // w→c: released/staged + post-commit max load, empty bins, resident load bytes
	mSnapshotReq                 // c→w: encode the owned shards (compress byte)
	mSnapshot                    // w→c: length-prefixed v2 shard frames, in shard order
	mQuit                        // c→w: exit cleanly
	mErr                         // w→c: fatal worker error (utf-8 description)
	mRoster                      // c→w (mesh): worker's own index + every worker's peer address
	mReady                       // w→c (mesh): all peer links established
	mPeerFrame                   // w→w (mesh): round id + the (src, dst) buffers between the two ranges
)

// peerMagic opens a dialed peer connection ahead of the hello indices, so
// a stray connection to a peer listener fails loudly instead of
// desynchronizing the mesh.
const peerMagic uint64 = 0x5242424d45534833 // "RBBMESH3"

// maxBufLen caps a single decoded exchange buffer (paranoia against a
// desynchronized stream demanding an absurd allocation; the chunked decode
// already bounds memory by the bytes actually present). 1<<31 − 1 so the
// untyped constant still fits an int on 32-bit platforms.
const maxBufLen = 1<<31 - 1

// maxAddrLen bounds a roster peer address.
const maxAddrLen = 1 << 10

// conn is one framed stream endpoint: buffered reads and writes of
// little-endian values with first-error latching, mirroring the codec
// style of internal/checkpoint. The read and write halves keep separate
// scratch and error state, so one goroutine may read while another
// writes — the shape the mesh exchange relies on; neither half tolerates
// two concurrent users.
type conn struct {
	br   *bufio.Reader
	bw   *bufio.Writer
	rerr error
	werr error
	rb   [8]byte
	wb   [8]byte
}

// newConn frames the stream, counting raw bytes into the optional
// counters (one atomic add per 64 KiB buffered transfer).
func newConn(r io.Reader, w io.Writer, tx, rx *obs.Counter) *conn {
	if rx != nil {
		r = countingReader{r, rx}
	}
	if tx != nil {
		w = countingWriter{w, tx}
	}
	return &conn{
		br: bufio.NewReaderSize(r, 1<<16),
		bw: bufio.NewWriterSize(w, 1<<16),
	}
}

// err returns the first latched error of either half.
func (c *conn) err() error {
	if c.werr != nil {
		return c.werr
	}
	return c.rerr
}

func (c *conn) failW(err error) {
	if c.werr == nil && err != nil {
		c.werr = err
	}
}

func (c *conn) failR(err error) {
	if c.rerr == nil && err != nil {
		c.rerr = err
	}
}

func (c *conn) wBytes(p []byte) {
	if c.werr == nil {
		_, err := c.bw.Write(p)
		c.failW(err)
	}
}

func (c *conn) wByte(v byte) { c.wBytes([]byte{v}) }

func (c *conn) wU32(v uint32) {
	binary.LittleEndian.PutUint32(c.wb[:4], v)
	c.wBytes(c.wb[:4])
}

func (c *conn) wU64(v uint64) {
	binary.LittleEndian.PutUint64(c.wb[:8], v)
	c.wBytes(c.wb[:8])
}

// wI32Buf writes a length-prefixed []int32 in bulk chunks.
func (c *conn) wI32Buf(vs []int32) {
	c.wU32(uint32(len(vs)))
	var chunk [1 << 12]byte
	for len(vs) > 0 && c.werr == nil {
		k := len(vs)
		if k > len(chunk)/4 {
			k = len(chunk) / 4
		}
		for i := 0; i < k; i++ {
			binary.LittleEndian.PutUint32(chunk[4*i:], uint32(vs[i]))
		}
		c.wBytes(chunk[:4*k])
		vs = vs[k:]
	}
}

// wBlob writes a u64-length-prefixed byte blob (a checkpoint frame on the
// join and snapshot paths, an address on the roster path).
func (c *conn) wBlob(p []byte) {
	c.wU64(uint64(len(p)))
	c.wBytes(p)
}

// rBlob reads a u64-length-prefixed byte blob bounded by maxLen.
func (c *conn) rBlob(maxLen uint64) []byte {
	n := c.rU64()
	if c.rerr != nil {
		return nil
	}
	if n > maxLen {
		c.failR(fmt.Errorf("%d-byte blob exceeds bound %d", n, maxLen))
		return nil
	}
	buf := make([]byte, int(n))
	if _, err := io.ReadFull(c.br, buf); err != nil {
		c.failR(fmt.Errorf("truncated blob: %w", err))
		return nil
	}
	return buf
}

func (c *conn) flush() {
	if c.werr == nil {
		c.failW(c.bw.Flush())
	}
}

func (c *conn) read(n int) []byte {
	if c.rerr == nil {
		if _, err := io.ReadFull(c.br, c.rb[:n]); err != nil {
			if err == io.ErrUnexpectedEOF {
				err = fmt.Errorf("truncated frame: %w", err)
			}
			c.failR(err)
			for i := range c.rb {
				c.rb[i] = 0
			}
		}
	}
	return c.rb[:n]
}

func (c *conn) rByte() byte  { return c.read(1)[0] }
func (c *conn) rU32() uint32 { return binary.LittleEndian.Uint32(c.read(4)) }
func (c *conn) rU64() uint64 { return binary.LittleEndian.Uint64(c.read(8)) }

// rI32Buf reads a length-prefixed []int32 into dst's backing array
// (growing it as needed) and returns the filled slice. Decoding is chunked
// so a corrupted length cannot demand memory beyond the bytes present.
func (c *conn) rI32Buf(dst []int32) []int32 {
	cnt := int(c.rU32())
	if c.rerr != nil {
		return dst[:0]
	}
	if cnt < 0 || cnt > maxBufLen {
		c.failR(fmt.Errorf("exchange buffer of %d balls", cnt))
		return dst[:0]
	}
	dst = dst[:0]
	var chunk [1 << 12]byte
	for got := 0; got < cnt && c.rerr == nil; {
		k := cnt - got
		if k > len(chunk)/4 {
			k = len(chunk) / 4
		}
		if _, err := io.ReadFull(c.br, chunk[:4*k]); err != nil {
			c.failR(fmt.Errorf("truncated exchange buffer: %w", err))
			return dst
		}
		for i := 0; i < k; i++ {
			dst = append(dst, int32(binary.LittleEndian.Uint32(chunk[4*i:])))
		}
		got += k
	}
	return dst
}

// wErrFrame sends a fatal worker error (best effort).
func (c *conn) wErrFrame(err error) {
	c.werr = nil // report even after a latched failure
	msg := []byte(err.Error())
	c.wByte(mErr)
	c.wU32(uint32(len(msg)))
	c.wBytes(msg)
	c.flush()
}

// expect reads the next frame type and requires it to be want, decoding a
// worker error frame into a Go error.
func (c *conn) expect(want byte) error {
	t := c.rByte()
	if c.rerr != nil {
		return c.rerr
	}
	if t == mErr {
		n := int(c.rU32())
		if c.rerr != nil || n < 0 || n > 1<<16 {
			return errors.New("worker failed (unreadable error frame)")
		}
		msg := make([]byte, n)
		if _, err := io.ReadFull(c.br, msg); err != nil {
			return fmt.Errorf("worker failed (truncated error frame): %w", err)
		}
		return fmt.Errorf("worker: %s", msg)
	}
	if t != want {
		return fmt.Errorf("unexpected frame type %d (want %d)", t, want)
	}
	return nil
}

// frameBound is the sanity cap on one relayed shard frame: the widest raw
// payload (int32 loads) plus flate slack and framing.
func frameBound(n, s, i int) uint64 {
	size := uint64(shard.PartitionSize(n, s, i))
	raw := 48 + size*4 + (size+63)/64*8
	return raw + raw/8 + 128
}

// countingReader / countingWriter sit between the raw stream and the
// bufio layer, so one atomic add covers a whole buffered transfer.
type countingReader struct {
	r io.Reader
	c *obs.Counter
}

func (cr countingReader) Read(p []byte) (int, error) {
	n, err := cr.r.Read(p)
	if n > 0 && obs.Enabled() {
		cr.c.Add(uint64(n))
	}
	return n, err
}

type countingWriter struct {
	w io.Writer
	c *obs.Counter
}

func (cw countingWriter) Write(p []byte) (int, error) {
	n, err := cw.w.Write(p)
	if n > 0 && obs.Enabled() {
		cw.c.Add(uint64(n))
	}
	return n, err
}
