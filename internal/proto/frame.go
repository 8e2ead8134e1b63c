// Package proto is the wire protocol — the stand-in for the paper's JDBC
// transport between applications and the C-JDBC controller, and the only
// one: a length-prefixed frame format carrying columnar batch blocks in
// the ColVec layout, multiplexed so many in-flight queries share one TCP
// connection with per-query stream IDs, credit-based flow control and
// wire-level cancellation. A database/sql driver over it lives in
// internal/driver; see DESIGN.md "Wire protocol" for the grammar.
//
// Frame layout (integers little-endian):
//
//	u32 payloadLen | u8 type | u32 streamID | payload[payloadLen]
//
// Frame types:
//
//	fQuery  client→server  open a query stream: u32 credits, u8 flags
//	                       (bit0 nocache), i64 maxStaleEpochs, u32 len,
//	                       sql
//	fExec   client→server  run a write/DDL: u32 len, sql
//	fPing   client→server  liveness probe (empty); answered with fEnd
//	fCancel client→server  abort the stream server-side (empty)
//	fCredit client→server  grant n more batch frames: u32 n
//	fHeader server→client  result schema: u16 ncols, per col u16 len +
//	                       name
//	fBatch  server→client  one columnar row block (see block.go)
//	fEnd    server→client  stream trailer: u8 ok; ok=1: i64 affected;
//	                       ok=0: i64 retryAfterMs, u16 len + code,
//	                       u32 len + message
//
// Handshake (not a frame): the client opens with 6 bytes — magic 0xFF
// 'A' 'P' 'U', u16 maxVersion — and the server answers with 8: magic,
// u16 chosenVersion, u16 reserved. A peer that does not open with the
// magic, or sends nothing within handshakeTimeout, is closed.
package proto

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"time"

	"apuama/internal/admission"
	"apuama/internal/cache"
)

// ProtoVersion is the highest frame-format version this build speaks.
const ProtoVersion = 1

// Frame types.
const (
	fQuery  = 1
	fExec   = 2
	fPing   = 3
	fCancel = 4
	fCredit = 5
	fHeader = 6
	fBatch  = 7
	fEnd    = 8
)

// maxFramePayload bounds a frame's declared payload length so a
// corrupt or hostile peer cannot demand an absurd allocation.
const maxFramePayload = 64 << 20

// frameHeaderSize is u32 len + u8 type + u32 streamID.
const frameHeaderSize = 9

// Handshake sizes: magic + u16 version, and the reply's extra u16
// reserved.
const (
	helloSize      = 6
	helloReplySize = 8
)

// handshakeTimeout bounds the handshake on both ends: the dialer's
// hello round-trip, and the server's wait for a peer's hello — so a
// connection that opens and says nothing costs a goroutine and a
// descriptor for this long, not until Close.
const handshakeTimeout = 2 * time.Second

var magic = [4]byte{0xFF, 'A', 'P', 'U'}

var (
	errBadFrame  = errors.New("proto: malformed frame")
	errBadBlock  = errors.New("proto: malformed batch block")
	errBadHello  = errors.New("proto: malformed handshake")
	errClosed    = errors.New("proto: connection closed")
	errCancelled = errors.New("proto: stream cancelled")
)

// readFrame reads one frame; the payload is freshly allocated because
// decoded batches alias it for their lifetime.
func readFrame(r *bufio.Reader) (typ byte, stream uint32, payload []byte, err error) {
	var hdr [frameHeaderSize]byte
	if _, err = io.ReadFull(r, hdr[:]); err != nil {
		return 0, 0, nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[0:])
	typ = hdr[4]
	stream = binary.LittleEndian.Uint32(hdr[5:])
	if n > maxFramePayload {
		return 0, 0, nil, fmt.Errorf("%w: payload %d exceeds limit", errBadFrame, n)
	}
	if n > 0 {
		payload = make([]byte, n)
		if _, err = io.ReadFull(r, payload); err != nil {
			return 0, 0, nil, err
		}
	}
	return typ, stream, payload, nil
}

// writeFrame copies one frame into w without flushing: flush policy —
// coalescing bursts from many streams into one syscall — belongs to the
// connection owners on both sides, who also serialize calls with their
// write mutex.
func writeFrame(w *bufio.Writer, typ byte, stream uint32, payload []byte) error {
	var hdr [frameHeaderSize]byte
	binary.LittleEndian.PutUint32(hdr[0:], uint32(len(payload)))
	hdr[4] = typ
	binary.LittleEndian.PutUint32(hdr[5:], stream)
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// queryReq is a decoded fQuery payload.
type queryReq struct {
	credits uint32
	ctl     cache.Control
	sql     string
}

const flagNoCache = 1 << 0

func encodeQuery(credits uint32, ctl cache.Control, sql string) []byte {
	b := make([]byte, 0, 17+len(sql))
	b = binary.LittleEndian.AppendUint32(b, credits)
	var flags byte
	if ctl.NoCache {
		flags |= flagNoCache
	}
	b = append(b, flags)
	b = binary.LittleEndian.AppendUint64(b, uint64(ctl.MaxStaleEpochs))
	b = binary.LittleEndian.AppendUint32(b, uint32(len(sql)))
	return append(b, sql...)
}

func decodeQuery(p []byte) (queryReq, error) {
	if len(p) < 17 {
		return queryReq{}, errBadFrame
	}
	q := queryReq{
		credits: binary.LittleEndian.Uint32(p),
		ctl: cache.Control{
			NoCache:        p[4]&flagNoCache != 0,
			MaxStaleEpochs: int64(binary.LittleEndian.Uint64(p[5:])),
		},
	}
	n := binary.LittleEndian.Uint32(p[13:])
	if uint32(len(p)-17) != n {
		return queryReq{}, errBadFrame
	}
	q.sql = string(p[17:])
	return q, nil
}

func encodeExec(sql string) []byte {
	b := make([]byte, 0, 4+len(sql))
	b = binary.LittleEndian.AppendUint32(b, uint32(len(sql)))
	return append(b, sql...)
}

func decodeExec(p []byte) (string, error) {
	if len(p) < 4 || uint32(len(p)-4) != binary.LittleEndian.Uint32(p) {
		return "", errBadFrame
	}
	return string(p[4:]), nil
}

func encodeCredit(n uint32) []byte {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], n)
	return b[:]
}

func decodeCredit(p []byte) (uint32, error) {
	if len(p) != 4 {
		return 0, errBadFrame
	}
	return binary.LittleEndian.Uint32(p), nil
}

func encodeHeader(cols []string) []byte {
	size := 2
	for _, c := range cols {
		size += 2 + len(c)
	}
	return appendHeader(make([]byte, 0, size), cols)
}

func appendHeader(b []byte, cols []string) []byte {
	b = binary.LittleEndian.AppendUint16(b, uint16(len(cols)))
	for _, c := range cols {
		b = binary.LittleEndian.AppendUint16(b, uint16(len(c)))
		b = append(b, c...)
	}
	return b
}

func decodeHeader(p []byte) ([]string, error) {
	if len(p) < 2 {
		return nil, errBadFrame
	}
	n := int(binary.LittleEndian.Uint16(p))
	p = p[2:]
	cols := make([]string, n)
	for i := 0; i < n; i++ {
		if len(p) < 2 {
			return nil, errBadFrame
		}
		l := int(binary.LittleEndian.Uint16(p))
		p = p[2:]
		if len(p) < l {
			return nil, errBadFrame
		}
		cols[i] = string(p[:l])
		p = p[l:]
	}
	if len(p) != 0 {
		return nil, errBadFrame
	}
	return cols, nil
}

// encodeEnd renders a stream trailer. err == nil means success with the
// given affected count; otherwise the error travels as its verbatim
// message plus the structured admission code and shed retry-after hint
// (in whole milliseconds, at least one, so a sub-millisecond hint is not
// truncated to "no hint"), so errors.Is against admission's sentinels
// holds across the socket.
func encodeEnd(affected int64, err error) []byte {
	if err == nil {
		b := make([]byte, 0, 9)
		b = append(b, 1)
		return binary.LittleEndian.AppendUint64(b, uint64(affected))
	}
	msg := err.Error()
	code, ra := admission.Code(err)
	var retryMs int64
	if ra > 0 {
		retryMs = max(int64(ra/time.Millisecond), 1)
	}
	b := make([]byte, 0, 15+len(code)+len(msg))
	b = append(b, 0)
	b = binary.LittleEndian.AppendUint64(b, uint64(retryMs))
	b = binary.LittleEndian.AppendUint16(b, uint16(len(code)))
	b = append(b, code...)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(msg)))
	return append(b, msg...)
}

// decodeEnd is encodeEnd's inverse; a non-nil err is the typed
// admission error when a structured code rode along, a plain string
// error otherwise — including for codes this client does not know.
func decodeEnd(p []byte) (affected int64, err error, ferr error) {
	if len(p) < 1 {
		return 0, nil, errBadFrame
	}
	if p[0] == 1 {
		if len(p) != 9 {
			return 0, nil, errBadFrame
		}
		return int64(binary.LittleEndian.Uint64(p[1:])), nil, nil
	}
	if len(p) < 15 {
		return 0, nil, errBadFrame
	}
	retryMs := int64(binary.LittleEndian.Uint64(p[1:]))
	cl := int(binary.LittleEndian.Uint16(p[9:]))
	p = p[11:]
	if len(p) < cl+4 {
		return 0, nil, errBadFrame
	}
	code := string(p[:cl])
	p = p[cl:]
	ml := int(binary.LittleEndian.Uint32(p))
	p = p[4:]
	if len(p) != ml {
		return 0, nil, errBadFrame
	}
	msg := string(p)
	if err = admission.Remote(code, msg, time.Duration(retryMs)*time.Millisecond); err == nil {
		err = errors.New(msg)
	}
	return 0, err, nil
}

// clientHello builds the 6-byte hello.
func clientHello() []byte {
	b := make([]byte, helloSize)
	copy(b, magic[:])
	binary.LittleEndian.PutUint16(b[4:], ProtoVersion)
	return b
}

// helloReply builds the server's 8-byte handshake answer.
func helloReply(version uint16) []byte {
	b := make([]byte, helloReplySize)
	copy(b, magic[:])
	binary.LittleEndian.PutUint16(b[4:], version)
	return b
}

// negotiate picks the version to speak with a peer advertising max.
func negotiate(peerMax uint16) uint16 {
	if peerMax < ProtoVersion {
		return peerMax
	}
	return ProtoVersion
}
