package dist

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"time"

	"repro/internal/event"
	"repro/internal/value"
)

// Bridge wire format
//
// Events cross a bridge in length-prefixed binary frames instead of
// JSON-per-line: one frame carries a whole batch (everything one sender
// firing flushed), the payload length makes truncation detectable, and the
// binary value codec keeps the per-event encode allocation-free.
//
//	frame   := uvarint payloadLen | payload
//	payload := uvarint seq | uvarint count | count × event
//	event   := varint ts (UnixNano, zigzag)
//	           varint wave.Root (zigzag)
//	           uvarint wave.RootSeq
//	           uvarint len(wave.Path) | len × varint path element
//	           flags byte (bit0 = last-of-wave, bit1 = traced, bit2 = timed)
//	           [uvarint origin-node-ID, iff flags bit1]
//	           [varint send-time (sender clock UnixNano), iff flags bit2]
//	           binary token (value.AppendBinary)
//
// seq is the sender's frame sequence number, starting at 0 and incremented
// per frame. The receiver tracks the next expected seq per connection and
// counts gaps (SeqGaps) — the hook a future replay/retransmission layer
// needs to request missing frames.
//
// The traced flag is trace-context propagation: when the sending node's
// tracer sampled the event's wave, bit1 is set and the sender's NodeID
// follows the flags byte. The receiving node forces the same wave into its
// own tracer and records the origin, so the wave's provenance — recorded
// independently per process — stitches together across the bridge.
// Untraced events encode byte-identically to the pre-trace format, so
// mixed-version bridges interoperate as long as tracing stays off on the
// newer side.
//
// The timed flag stamps traced events with the sender's send time (its own
// clock), one reading per encoded frame. Combined with the receiver-side
// clock-skew estimate (skew.go) this yields the corrected one-way bridge
// transit the latency waterfall attributes to the wire. A count==0 frame is
// a control frame (today: the skew pong, see skew.go); data frames always
// carry at least one event.
//
// Backpressure is credit-based: the receiver owns a bounded ring, and the
// sender may have at most creditWindow unacknowledged events in flight.
// As the receiver's Fire drains events into the workflow it writes uvarint
// drained-counts back on the same TCP connection (the reverse direction);
// the sender's ack reader returns them to the credit pool. A full ring
// therefore stalls the sender's Fire instead of growing an unbounded
// buffer on the receiver — the sender's upstream then backs up through the
// normal windowed-receiver path.

const (
	// maxFramePayload bounds a frame's declared payload so a corrupt or
	// adversarial length prefix cannot make the receiver allocate
	// arbitrarily (16 MiB ≫ any real batch: frames carry at most
	// senderBatch events).
	maxFramePayload = 16 << 20

	// creditWindow is the number of unacknowledged events a sender may have
	// in flight. It exceeds the receive ring capacity so a sender never
	// stalls on credits while ring space is free.
	creditWindow = 16384

	// senderBatch caps the events encoded into one frame, keeping frames
	// well under maxFramePayload and the receiver's latency per frame low.
	senderBatch = 1024

	// recvRingCap is the receive ring capacity shared by all sender
	// connections of one Receiver.
	recvRingCap = 8192

	// ackEvery is how many drained events the receiver accumulates per
	// connection before flushing a credit update mid-drain; any remainder
	// flushes at the end of the draining Fire.
	ackEvery = 1024
)

// frameEncoder builds frames into reused buffers: after the first few
// frames, encoding touches no allocator at all. sampler and origin, when
// set, enable trace-context propagation: sampled waves get the traced flag
// plus the sending node's ID on the wire.
type frameEncoder struct {
	seq     uint64
	payload []byte
	hdr     []byte
	sampler func(root int64, rootSeq uint64) bool
	origin  uint64
}

const (
	wireFlagLast   = 1 << 0
	wireFlagTraced = 1 << 1
	wireFlagTimed  = 1 << 2
)

// appendEvent appends one event's wire encoding to buf. traced marks the
// event's wave as sampled upstream; origin is the sending node's identity
// and sendNs the send-time stamp (0 = unstamped), both emitted only for
// traced events so untraced traffic keeps the legacy byte layout.
func appendEvent(buf []byte, ev *event.Event, traced bool, origin uint64, sendNs int64) []byte {
	buf = binary.AppendVarint(buf, ev.Time.UnixNano())
	buf = binary.AppendVarint(buf, ev.Wave.Root)
	buf = binary.AppendUvarint(buf, ev.Wave.RootSeq)
	buf = binary.AppendUvarint(buf, uint64(len(ev.Wave.Path)))
	for _, p := range ev.Wave.Path {
		buf = binary.AppendVarint(buf, int64(p))
	}
	var flags byte
	if ev.Wave.Last {
		flags = wireFlagLast
	}
	if traced {
		flags |= wireFlagTraced
		if sendNs != 0 {
			flags |= wireFlagTimed
		}
	}
	buf = append(buf, flags)
	if traced {
		buf = binary.AppendUvarint(buf, origin)
		if sendNs != 0 {
			buf = binary.AppendVarint(buf, sendNs)
		}
	}
	return value.AppendBinary(buf, ev.Token)
}

// encode builds the frame for a batch of events into the encoder's reused
// buffers and returns the two spans to write: the header (length prefix)
// and the payload. The returned slices are valid until the next encode.
// Traced events are stamped with one send-time reading taken per frame —
// the stamp's intra-frame error is the frame's own encode time, far under
// the skew estimator's ±rtt/2 bound.
func (e *frameEncoder) encode(events []*event.Event) (hdr, payload []byte) {
	var sendNs int64
	if e.sampler != nil {
		sendNs = time.Now().UnixNano()
	}
	p := e.payload[:0]
	p = binary.AppendUvarint(p, e.seq)
	p = binary.AppendUvarint(p, uint64(len(events)))
	for _, ev := range events {
		traced := e.sampler != nil && e.sampler(ev.Wave.Root, ev.Wave.RootSeq)
		p = appendEvent(p, ev, traced, e.origin, sendNs)
	}
	e.payload = p
	e.seq++
	e.hdr = binary.AppendUvarint(e.hdr[:0], uint64(len(p)))
	return e.hdr, e.payload
}

// frameReader reads frames off a connection into a reused payload buffer.
type frameReader struct {
	r   *bufio.Reader
	buf []byte
}

func newFrameReader(r io.Reader) *frameReader {
	return &frameReader{r: bufio.NewReaderSize(r, 64*1024)}
}

// next reads one frame and returns its sequence number, event count and the
// event bytes (valid until the next call). io.EOF signals a clean
// end-of-stream (connection closed between frames); any other error is a
// protocol violation or transport failure.
func (fr *frameReader) next() (seq uint64, count int, body []byte, err error) {
	plen, err := binary.ReadUvarint(fr.r)
	if err != nil {
		if err == io.EOF {
			return 0, 0, nil, io.EOF
		}
		return 0, 0, nil, fmt.Errorf("dist: frame header: %w", err)
	}
	if plen > maxFramePayload {
		return 0, 0, nil, fmt.Errorf("dist: frame payload %d exceeds limit %d", plen, maxFramePayload)
	}
	if uint64(cap(fr.buf)) < plen {
		fr.buf = make([]byte, plen)
	}
	buf := fr.buf[:plen]
	if _, err := io.ReadFull(fr.r, buf); err != nil {
		return 0, 0, nil, fmt.Errorf("dist: frame body: %w", err)
	}
	seq, n := binary.Uvarint(buf)
	if n <= 0 {
		return 0, 0, nil, fmt.Errorf("dist: bad frame seq")
	}
	buf = buf[n:]
	cnt, n := binary.Uvarint(buf)
	if n <= 0 {
		return 0, 0, nil, fmt.Errorf("dist: bad frame count")
	}
	buf = buf[n:]
	if cnt > uint64(len(buf)) {
		// Every event needs at least one byte; an impossible count means a
		// corrupt frame.
		return 0, 0, nil, fmt.Errorf("dist: frame count %d exceeds payload", cnt)
	}
	return seq, int(cnt), buf, nil
}

// wireMeta is the trace context decoded alongside an event: whether the
// sending node sampled the event's wave, which node sent it, and the
// sender-clock send time (0 when the sender did not stamp one).
type wireMeta struct {
	traced bool
	origin uint64
	sendNs int64
}

// decodeWireEvent decodes one event from the front of b, returning the
// event, its trace context and the bytes consumed.
func decodeWireEvent(b []byte) (*event.Event, wireMeta, int, error) {
	var meta wireMeta
	ts, n := binary.Varint(b)
	if n <= 0 {
		return nil, meta, 0, fmt.Errorf("dist: bad event timestamp")
	}
	used := n
	root, n := binary.Varint(b[used:])
	if n <= 0 {
		return nil, meta, 0, fmt.Errorf("dist: bad wave root")
	}
	used += n
	rootSeq, n := binary.Uvarint(b[used:])
	if n <= 0 {
		return nil, meta, 0, fmt.Errorf("dist: bad wave rootSeq")
	}
	used += n
	plen, n := binary.Uvarint(b[used:])
	if n <= 0 {
		return nil, meta, 0, fmt.Errorf("dist: bad wave path length")
	}
	used += n
	if plen > uint64(len(b)-used) {
		return nil, meta, 0, fmt.Errorf("dist: wave path length %d exceeds payload", plen)
	}
	var path []int
	if plen > 0 {
		path = make([]int, plen)
		for i := range path {
			p, n := binary.Varint(b[used:])
			if n <= 0 {
				return nil, meta, 0, fmt.Errorf("dist: bad wave path element")
			}
			path[i] = int(p)
			used += n
		}
	}
	if used >= len(b) {
		return nil, meta, 0, fmt.Errorf("dist: truncated event flags")
	}
	flags := b[used]
	used++
	if flags&wireFlagTraced != 0 {
		origin, n := binary.Uvarint(b[used:])
		if n <= 0 {
			return nil, meta, 0, fmt.Errorf("dist: bad trace origin")
		}
		used += n
		meta.traced = true
		meta.origin = origin
		if flags&wireFlagTimed != 0 {
			sendNs, n := binary.Varint(b[used:])
			if n <= 0 {
				return nil, meta, 0, fmt.Errorf("dist: bad send time")
			}
			used += n
			meta.sendNs = sendNs
		}
	}
	tok, n, err := value.DecodeBinary(b[used:])
	if err != nil {
		return nil, meta, 0, err
	}
	used += n
	return &event.Event{
		Token: tok,
		Time:  time.Unix(0, ts).UTC(),
		Wave: event.WaveTag{
			Root:    root,
			RootSeq: rootSeq,
			Path:    path,
			Last:    flags&wireFlagLast != 0,
		},
	}, meta, used, nil
}
