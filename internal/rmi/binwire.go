package rmi

import (
	"encoding/binary"
	"fmt"
	"io"

	"repro/internal/wire"
)

// Wire format v1 (DESIGN.md §12): every frame is one fixed little-endian
// header followed by a varint-encoded body.
//
//	offset  size  field
//	0       1     magic0 = 0x00
//	1       1     magic1 = 0xD5
//	2       1     version = 1
//	3       1     kind (hello/welcome/request/response)
//	4       4     body length, uint32 little-endian
//	8       n     body
//
// The body is the frame ID as an unsigned varint, then seven
// length-prefixed sections in fixed order: Session, Method, Payload,
// Err, Client, Nonce, Tag. Absent fields are zero-length sections. The
// body length is capped so adversarial headers cannot make the reader
// allocate unboundedly, and a parsed body must be consumed exactly —
// trailing bytes poison the frame.
const (
	binMagic0    = 0x00
	binMagic1    = 0xD5
	binVersion   = 1
	binHeaderLen = 8

	// maxFrameBody bounds one frame's body. The largest legitimate frames
	// are pattern-batch payloads (tens of kilobytes); 64 MiB leaves three
	// orders of magnitude of headroom while keeping a hostile header from
	// committing the reader to an arbitrary allocation.
	maxFrameBody = 64 << 20

	// maxInternedMethods bounds the reader's method-name intern table so
	// a hostile peer cycling method names cannot grow it without limit.
	maxInternedMethods = 256
)

// binFrameWriter encodes frames into one reusable buffer and writes each
// frame with a single Write call. Steady-state framing allocates nothing:
// the buffer grows to the largest frame seen and stays. Exactly one
// goroutine owns each direction of a connection after the mux pumps
// start, which is what lets the writer and binFrameReader keep their
// buffers without locks.
type binFrameWriter struct {
	w   io.Writer
	buf []byte
}

//gocad:noalloc
func (bw *binFrameWriter) writeFrame(f *frame) error {
	if err := bw.encode(f); err != nil {
		return err
	}
	return bw.flush()
}

// encode replaces the buffer's contents with the wire form of f; flush
// writes them. The mux writer splits the two so it can record a request's
// size before the request reaches the peer.
//
//gocad:noalloc
func (bw *binFrameWriter) encode(f *frame) error {
	b, err := appendFrame(bw.buf[:0], f)
	if err != nil {
		return err
	}
	bw.buf = b
	return nil
}

//gocad:noalloc
func (bw *binFrameWriter) flush() error {
	_, err := bw.w.Write(bw.buf)
	return err
}

// appendFrame appends the wire-format-v1 encoding of f to b.
//
//gocad:noalloc
func appendFrame(b []byte, f *frame) ([]byte, error) {
	b = append(b, binMagic0, binMagic1, binVersion, f.Kind)
	b = append(b, 0, 0, 0, 0) // body length, patched below
	b = binary.AppendUvarint(b, f.ID)
	b = wire.AppendString(b, f.Session)
	b = wire.AppendString(b, f.Method)
	b = wire.AppendBytes(b, f.Payload)
	b = wire.AppendString(b, f.Err)
	b = wire.AppendString(b, f.Client)
	b = wire.AppendBytes(b, f.Nonce)
	b = wire.AppendString(b, f.Tag)
	body := len(b) - binHeaderLen
	if body > maxFrameBody {
		return nil, frameTooLarge(body)
	}
	binary.LittleEndian.PutUint32(b[4:8], uint32(body))
	return b, nil
}

// frameTooLarge builds the oversize-frame error. Outlined behind
// //go:noinline so its fmt boxing stays off appendFrame's
// //gocad:noalloc steady-state path.
//
//go:noinline
func frameTooLarge(body int) error {
	return fmt.Errorf("rmi: frame body %d bytes exceeds the %d-byte wire limit", body, maxFrameBody)
}

// binFrameReader decodes frames from the connection into one reusable
// body buffer. Session and method strings are interned (one connection
// speaks one session and a handful of methods, so the steady state
// re-decodes known strings without allocating). When aliasPayload is
// set, the decoded Payload aliases the reader's buffer and is valid only
// until the next readFrame — the mux reader and the serial server loop
// both consume it synchronously; the concurrent server loop, which hands
// frames to worker goroutines, must leave it unset.
type binFrameReader struct {
	r            io.Reader
	aliasPayload bool

	hdr         [binHeaderLen]byte
	body        []byte
	lastSession string
	methods     map[string]string
}

func (br *binFrameReader) readFrame(f *frame) error {
	if _, err := io.ReadFull(br.r, br.hdr[:]); err != nil {
		return err
	}
	if br.hdr[0] != binMagic0 || br.hdr[1] != binMagic1 {
		return fmt.Errorf("rmi: bad frame magic %#02x%02x", br.hdr[0], br.hdr[1])
	}
	if br.hdr[2] != binVersion {
		return fmt.Errorf("rmi: unsupported wire format version %d (speaking %d)", br.hdr[2], binVersion)
	}
	n := binary.LittleEndian.Uint32(br.hdr[4:8])
	if n > maxFrameBody {
		return fmt.Errorf("rmi: frame body %d bytes exceeds the %d-byte wire limit", n, maxFrameBody)
	}
	if cap(br.body) < int(n) {
		br.body = make([]byte, n)
	} else {
		br.body = br.body[:n]
	}
	if _, err := io.ReadFull(br.r, br.body); err != nil {
		return err
	}
	return br.parseBody(br.hdr[3], br.body, f)
}

// parseBody fills f from one frame body. The body must be consumed
// exactly: length prefixes are validated against the bytes present, and
// trailing bytes are a protocol error.
func (br *binFrameReader) parseBody(kind uint8, b []byte, f *frame) error {
	keep := f.Payload[:0] // retain payload capacity across pooled reuse
	*f = frame{Kind: kind}
	var err error
	if f.ID, b, err = wire.Uvarint(b); err != nil {
		return fmt.Errorf("rmi: frame id: %w", err)
	}
	var sec []byte
	if sec, b, err = wire.Bytes(b); err != nil {
		return fmt.Errorf("rmi: session section: %w", err)
	}
	f.Session = br.internSession(sec)
	if sec, b, err = wire.Bytes(b); err != nil {
		return fmt.Errorf("rmi: method section: %w", err)
	}
	f.Method = br.internMethod(sec)
	if sec, b, err = wire.Bytes(b); err != nil {
		return fmt.Errorf("rmi: payload section: %w", err)
	}
	if len(sec) > 0 {
		if br.aliasPayload {
			f.Payload = sec
		} else {
			f.Payload = append(keep, sec...)
		}
	}
	if sec, b, err = wire.Bytes(b); err != nil {
		return fmt.Errorf("rmi: err section: %w", err)
	}
	if len(sec) > 0 {
		f.Err = string(sec)
	}
	if sec, b, err = wire.Bytes(b); err != nil {
		return fmt.Errorf("rmi: client section: %w", err)
	}
	if len(sec) > 0 {
		f.Client = string(sec)
	}
	if sec, b, err = wire.Bytes(b); err != nil {
		return fmt.Errorf("rmi: nonce section: %w", err)
	}
	if len(sec) > 0 {
		f.Nonce = append([]byte(nil), sec...)
	}
	if sec, b, err = wire.Bytes(b); err != nil {
		return fmt.Errorf("rmi: tag section: %w", err)
	}
	if len(sec) > 0 {
		f.Tag = string(sec)
	}
	if len(b) != 0 {
		return fmt.Errorf("rmi: %d trailing bytes after frame body", len(b))
	}
	return nil
}

// internSession returns the session string for sec without allocating in
// the steady state (one connection carries one session ID).
func (br *binFrameReader) internSession(sec []byte) string {
	if len(sec) == 0 {
		return ""
	}
	if string(sec) != br.lastSession {
		br.lastSession = string(sec)
	}
	return br.lastSession
}

// internMethod returns the method string for sec, reusing known names.
// The `m[string(b)]` lookup form is allocation-free.
func (br *binFrameReader) internMethod(sec []byte) string {
	if len(sec) == 0 {
		return ""
	}
	if m, ok := br.methods[string(sec)]; ok {
		return m
	}
	m := string(sec)
	if br.methods == nil {
		br.methods = make(map[string]string)
	}
	if len(br.methods) < maxInternedMethods {
		br.methods[m] = m
	}
	return m
}
