// Package dist implements the paper's first scalability direction
// (Section 5): distributing the processing of a workflow among multiple
// computing nodes by placing specific actors on specific nodes. Each node
// runs its own sub-workflow under its own (locally scheduled) director;
// channels that cross node boundaries become bridges — a Sender sink on the
// upstream node streaming events over TCP to a Receiver source on the
// downstream node. Event timestamps and wave identity survive the hop, so
// response-time measurement and wave synchronization keep working across
// nodes.
//
// Bridges speak the length-prefixed binary batch format of frame.go with
// credit-based backpressure: the receiver holds arrivals in a bounded
// lock-free ring and grants credits back as its Fire drains them, so a slow
// downstream node stalls the upstream sender instead of growing an
// unbounded buffer. The JSON per-event codec (json.go) remains as the
// benchmark baseline the binary format is measured against.
package dist

import (
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/clock"
	"repro/internal/event"
	"repro/internal/model"
	"repro/internal/ring"
	"repro/internal/window"
)

// Sender is the upstream half of a bridge: a sink actor that streams every
// consumed event to the remote node. It dials at Initialize and closes the
// connection at Wrapup, which signals end-of-stream to the receiver.
type Sender struct {
	model.Base
	in   *model.Port
	addr string

	mu   sync.Mutex
	conn net.Conn
	sent int64
	enc  frameEncoder

	// wmu serializes frame writes on the connection: Fire's data frames and
	// the ack reader's skew-pong control frames interleave at frame
	// granularity, never mid-frame.
	wmu     sync.Mutex
	pongBuf []byte

	// Credit state: how many more events may be sent before the receiver
	// acknowledges drains. The ack-reader goroutine refills it.
	cmu     sync.Mutex
	ccond   *sync.Cond
	credits int
	dead    error

	// ackDone is closed when the ack-reader goroutine exits; Wrapup waits
	// on it after half-closing so the receiver's pings never sit unread in
	// the kernel buffer when the socket is released (that would turn the
	// close into a RST discarding in-flight data frames).
	ackDone chan struct{}
}

// NewSender builds the sending half, targeting the receiver's address.
func NewSender(name, addr string) *Sender {
	s := &Sender{Base: model.NewBase(name), addr: addr}
	s.ccond = sync.NewCond(&s.cmu)
	s.Bind(s)
	s.in = s.WindowedInput("in", window.Passthrough())
	return s
}

// In returns the bridge input port.
func (s *Sender) In() *model.Port { return s.in }

// SetTraceSampler enables trace-context propagation: sampled reports
// whether the local tracer sampled a wave, and origin is this node's
// identity stamped onto traced events on the wire (see NodeIDOf). Call
// before the workflow runs; the obs engine wires this automatically when a
// watched workflow contains a Sender.
func (s *Sender) SetTraceSampler(sampled func(root int64, rootSeq uint64) bool, origin uint64) {
	s.mu.Lock()
	s.enc.sampler = sampled
	s.enc.origin = origin
	s.mu.Unlock()
}

// Sent returns how many events have crossed the bridge.
func (s *Sender) Sent() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sent
}

// Initialize implements model.Actor: connect to the remote node and start
// draining its credit acknowledgements.
func (s *Sender) Initialize(*model.FireContext) error {
	conn, err := net.DialTimeout("tcp", s.addr, 5*time.Second)
	if err != nil {
		return fmt.Errorf("dist: sender %s: dial %s: %w", s.Name(), s.addr, err)
	}
	s.mu.Lock()
	s.conn = conn
	s.mu.Unlock()
	s.cmu.Lock()
	s.credits = creditWindow
	s.dead = nil
	s.cmu.Unlock()
	done := make(chan struct{})
	s.mu.Lock()
	s.ackDone = done
	s.mu.Unlock()
	go func() {
		defer close(done)
		s.ackReader(conn)
	}()
	return nil
}

// ackReader returns receiver drain acknowledgements to the credit pool. It
// exits when the connection dies, waking any Fire stalled on credits. A
// zero count — never a legitimate credit grant — escapes to a control
// message (today: the receiver's skew ping, answered inline with a pong
// control frame on the data channel).
func (s *Sender) ackReader(conn net.Conn) {
	br := newFrameReader(conn).r // just the buffered reader
	fail := func(err error) {
		s.cmu.Lock()
		if s.dead == nil {
			if err == io.EOF {
				s.dead = fmt.Errorf("dist: sender %s: connection closed by receiver", s.Name())
			} else {
				s.dead = fmt.Errorf("dist: sender %s: ack stream: %w", s.Name(), err)
			}
		}
		s.ccond.Broadcast()
		s.cmu.Unlock()
	}
	for {
		n, err := binary.ReadUvarint(br)
		if err != nil {
			fail(err)
			return
		}
		if n == 0 {
			if err := s.handleControl(conn, br); err != nil {
				fail(err)
				return
			}
			continue
		}
		s.cmu.Lock()
		s.credits += int(n)
		s.ccond.Broadcast()
		s.cmu.Unlock()
	}
}

// handleControl consumes one control message off the ack channel. A ping
// is answered immediately with a pong control frame carrying the ping's t0,
// this clock's reply time and this node's identity — the receiver completes
// the skew sample when it arrives.
func (s *Sender) handleControl(conn net.Conn, br io.ByteReader) error {
	kind, err := binary.ReadUvarint(br)
	if err != nil {
		return err
	}
	switch kind {
	case skewKindPing:
		t0, err := binary.ReadVarint(br)
		if err != nil {
			return err
		}
		s.mu.Lock()
		origin := s.enc.origin
		s.mu.Unlock()
		s.wmu.Lock()
		defer s.wmu.Unlock()
		p := s.pongBuf[:0]
		p = binary.AppendUvarint(p, 0) // seq: ignored on control frames
		p = binary.AppendUvarint(p, 0) // count 0: control frame
		p = binary.AppendUvarint(p, skewKindPong)
		p = binary.AppendVarint(p, t0)
		p = binary.AppendVarint(p, time.Now().UnixNano())
		p = binary.AppendUvarint(p, origin)
		hdr := binary.AppendUvarint(p[len(p):], uint64(len(p)))
		// Pongs are best-effort: after Wrapup half-closes the write side a
		// ping can still arrive, and failing here would end the drain loop
		// and release the socket while the receiver holds unread frames
		// (turning the close into an RST). Lost pongs just cost a sample;
		// a genuinely dead connection fails the next read or Fire instead.
		if _, err := conn.Write(hdr); err == nil {
			_, _ = conn.Write(p)
		}
		s.pongBuf = p
		return nil
	default:
		return fmt.Errorf("dist: sender %s: unknown control kind %d", s.Name(), kind)
	}
}

// takeCredits blocks until at least one credit is available and takes up to
// want of them. A dead connection aborts the wait.
func (s *Sender) takeCredits(want int) (int, error) {
	s.cmu.Lock()
	defer s.cmu.Unlock()
	for s.credits == 0 && s.dead == nil {
		s.ccond.Wait()
	}
	if s.dead != nil {
		return 0, s.dead
	}
	got := want
	if got > s.credits {
		got = s.credits
	}
	s.credits -= got
	return got, nil
}

// Fire implements model.Actor: frame the window's events and write them
// out, chunked to the credit window so a stalled receiver exerts
// backpressure here instead of overrunning its ring.
func (s *Sender) Fire(ctx *model.FireContext) error {
	w := ctx.Window(s.in)
	if w == nil {
		return nil
	}
	s.mu.Lock()
	conn := s.conn
	s.mu.Unlock()
	if conn == nil {
		return fmt.Errorf("dist: sender %s not connected", s.Name())
	}
	evs := w.Events
	for len(evs) > 0 {
		want := len(evs)
		if want > senderBatch {
			want = senderBatch
		}
		got, err := s.takeCredits(want)
		if err != nil {
			return err
		}
		hdr, payload := s.enc.encode(evs[:got])
		s.wmu.Lock()
		_, err = conn.Write(hdr)
		if err == nil {
			_, err = conn.Write(payload)
		}
		s.wmu.Unlock()
		if err != nil {
			return fmt.Errorf("dist: sender %s: write: %w", s.Name(), err)
		}
		s.mu.Lock()
		s.sent += int64(got)
		s.mu.Unlock()
		evs = evs[got:]
	}
	return nil
}

// Wrapup implements model.Actor: end the stream for the receiver. The
// shutdown is a half-close handshake, not a hard Close: the receiver keeps
// pinging for skew samples until it sees our FIN, and closing a socket
// with an unread ping in the kernel buffer degrades the close into a RST
// that discards data frames still in flight. So FIN the write side, wait
// for the receiver to drain and close (the ack reader sees EOF), then
// release the socket.
func (s *Sender) Wrapup() error {
	s.mu.Lock()
	conn := s.conn
	done := s.ackDone
	s.conn = nil
	s.mu.Unlock()
	if conn == nil {
		return nil
	}
	if tc, ok := conn.(*net.TCPConn); ok {
		if err := tc.CloseWrite(); err == nil && done != nil {
			select {
			case <-done:
			case <-time.After(5 * time.Second):
			}
		}
	}
	return conn.Close()
}

// senderConn is one accepted sender connection on the receiving side.
type senderConn struct {
	c net.Conn
	// wmu serializes writes on the reverse (ack) channel: Fire's credit
	// grants and the pinger's skew pings interleave at message granularity.
	wmu sync.Mutex
	// nextSeq is the next expected frame sequence number; only the
	// connection's serve goroutine touches it.
	nextSeq uint64
	// pendingAck counts drained-but-unacknowledged events; only the
	// receiver's Fire (serialized by the firing protocol) touches it.
	pendingAck int
	// touched marks membership in Fire's touched-connection scratch list.
	touched bool

	// est is this connection's clock-skew estimator, fed by pong control
	// frames; origin is the sending node's identity learned from the first
	// pong (0 until then, or when the sender has no identity).
	est    skewEstimator
	origin atomic.Uint64
	// done stops the pinger when the serve goroutine exits; closed marks
	// the connection dead for PeerOffsets.
	done   chan struct{}
	closed atomic.Bool
}

// recvEvent is one ring entry: the decoded event plus its source
// connection, so drain acknowledgements go back to the right sender.
type recvEvent struct {
	ev  *event.Event
	src *senderConn
}

// Receiver is the downstream half: a push source that listens for sender
// connections and re-emits each event with its original timestamp and wave
// tag. Arrivals wait in a bounded lock-free ring; when it fills, the
// connection goroutines stop reading, TCP backpressure reaches the
// senders, and their credit windows stall them — no unbounded buffering
// anywhere on the path.
type Receiver struct {
	model.Base
	out *model.Port
	ln  net.Listener

	ring    *ring.MPMC[recvEvent]
	closing atomic.Bool

	received  atomic.Int64
	dropped   atomic.Int64
	watermark atomic.Int64
	decodeEr  atomic.Int64
	seqGaps   atomic.Int64

	cmu         sync.Mutex
	conns       []*senderConn
	connsSeen   int
	connsLive   int
	acceptDone  bool
	expect      int
	traceSink   func(root int64, rootSeq uint64, origin uint64)
	transitSink func(root int64, rootSeq uint64, origin uint64, sentNs, recvNs int64, transit time.Duration)

	// Fire-only scratch: connections drained this firing and the ack
	// encode buffer.
	touchScratch []*senderConn
	ackBuf       []byte
}

// Listen starts the receiving half on addr ("127.0.0.1:0" for an ephemeral
// port); its Addr is handed to NewSender on the upstream node(s). By
// default the bridge expects a single sender; raise that with
// ExpectSenders before running the workflow.
func Listen(name, addr string) (*Receiver, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("dist: receiver %s: listen %s: %w", name, addr, err)
	}
	r := &Receiver{
		Base:   model.NewBase(name),
		ln:     ln,
		ring:   ring.NewMPMC[recvEvent](recvRingCap),
		expect: 1,
	}
	r.Bind(r)
	r.out = r.Output("out")
	go r.acceptLoop()
	return r, nil
}

// Addr returns the address senders should dial.
func (r *Receiver) Addr() string { return r.ln.Addr().String() }

// Out returns the bridge output port.
func (r *Receiver) Out() *model.Port { return r.out }

// ExpectSenders declares how many sender connections feed this bridge
// (default 1). The receiver reports Exhausted only after that many senders
// have connected and every connection has closed. Call before the workflow
// runs.
func (r *Receiver) ExpectSenders(n int) {
	r.cmu.Lock()
	defer r.cmu.Unlock()
	if n > 0 {
		r.expect = n
	}
}

// SetTraceSink registers the callback invoked once per traced wave per
// frame when events arrive carrying upstream trace context: the receiving
// node's chance to force the wave into its own tracer and note the origin
// node before the events fire locally. Call before senders connect; the
// obs engine wires this automatically when a watched workflow contains a
// Receiver.
func (r *Receiver) SetTraceSink(sink func(root int64, rootSeq uint64, origin uint64)) {
	r.cmu.Lock()
	r.traceSink = sink
	r.cmu.Unlock()
}

// SetTransitSink registers the callback invoked once per traced wave per
// frame with the wave's corrected one-way bridge transit: sentNs is the
// sender's send stamp mapped onto this node's clock by the connection's
// skew estimate, recvNs the local arrival time, transit their difference.
// Called only once a skew estimate exists for the connection. Call before
// senders connect; the obs engine wires this automatically when a watched
// workflow contains a Receiver.
func (r *Receiver) SetTransitSink(sink func(root int64, rootSeq uint64, origin uint64, sentNs, recvNs int64, transit time.Duration)) {
	r.cmu.Lock()
	r.transitSink = sink
	r.cmu.Unlock()
}

// PeerOffsets reports the current clock-skew estimate per upstream node,
// preferring live connections and, within a liveness class, the estimate
// with the freshest sample — so a reconnect's new estimate supersedes the
// old connection's immediately.
func (r *Receiver) PeerOffsets() []PeerOffset {
	r.cmu.Lock()
	conns := append([]*senderConn(nil), r.conns...)
	r.cmu.Unlock()
	type cand struct {
		po   PeerOffset
		live bool
	}
	best := map[NodeID]cand{}
	for _, sc := range conns {
		origin := NodeID(sc.origin.Load())
		if origin == 0 {
			continue
		}
		offNs, rttNs, atNs, n, ok := sc.est.estimate()
		if !ok {
			continue
		}
		c := cand{
			po: PeerOffset{
				Origin:  origin,
				Offset:  time.Duration(offNs),
				RTT:     time.Duration(rttNs),
				Samples: n,
				at:      atNs,
			},
			live: !sc.closed.Load(),
		}
		if prev, seen := best[origin]; seen {
			if prev.live && !c.live {
				continue
			}
			if prev.live == c.live && prev.po.at >= c.po.at {
				continue
			}
		}
		best[origin] = c
	}
	out := make([]PeerOffset, 0, len(best))
	for _, c := range best {
		out = append(out, c.po)
	}
	return out
}

// DecodeErrors counts malformed frames dropped off the wire.
func (r *Receiver) DecodeErrors() int64 { return r.decodeEr.Load() }

// Received counts events accepted into the receive ring.
func (r *Receiver) Received() int64 { return r.received.Load() }

// Dropped counts events discarded because the bridge shut down while they
// were still in flight. During normal operation a full ring blocks the
// connection goroutine instead of dropping.
func (r *Receiver) Dropped() int64 { return r.dropped.Load() }

// Watermark returns the peak receive-ring occupancy, the bridge's
// bottleneck signal: a watermark at ring capacity means the downstream node
// was the constraint and senders were being stalled.
func (r *Receiver) Watermark() int64 { return r.watermark.Load() }

// RingCap returns the receive ring capacity, the denominator for reading
// Watermark.
func (r *Receiver) RingCap() int { return r.ring.Cap() }

// SeqGaps counts frame sequence discontinuities — non-zero only if a
// transport delivered frames out of order or dropped them, the signal a
// future replay layer would act on.
func (r *Receiver) SeqGaps() int64 { return r.seqGaps.Load() }

func (r *Receiver) acceptLoop() {
	for {
		conn, err := r.ln.Accept()
		if err != nil {
			r.cmu.Lock()
			r.acceptDone = true
			r.cmu.Unlock()
			return
		}
		sc := &senderConn{c: conn, done: make(chan struct{})}
		r.cmu.Lock()
		r.conns = append(r.conns, sc)
		r.connsSeen++
		r.connsLive++
		r.cmu.Unlock()
		go r.serveConn(sc)
		go r.pinger(sc)
	}
}

// serveConn reads frames from one sender until end-of-stream. A frame or
// event decode error closes the connection: the stream is length-prefixed,
// so there is no resynchronization point after corrupt bytes.
func (r *Receiver) serveConn(sc *senderConn) {
	defer func() {
		sc.closed.Store(true)
		close(sc.done)
		sc.c.Close()
		r.cmu.Lock()
		r.connsLive--
		r.cmu.Unlock()
	}()
	r.cmu.Lock()
	sink := r.traceSink
	transitSink := r.transitSink
	r.cmu.Unlock()
	fr := newFrameReader(sc.c)
	// lastRoot/lastSeq dedupe consecutive traced events of one wave so the
	// sinks fire once per wave per frame run, not once per event.
	var lastRoot int64
	var lastSeq uint64
	var haveLast bool
	for {
		seq, count, body, err := fr.next()
		if err != nil {
			if err != io.EOF {
				r.decodeEr.Add(1)
			}
			return
		}
		if count == 0 {
			// Control frame (today: the skew pong); consumes no data seq.
			if !r.handleControl(sc, body) {
				r.decodeEr.Add(1)
				return
			}
			continue
		}
		if seq != sc.nextSeq {
			r.seqGaps.Add(1)
		}
		sc.nextSeq = seq + 1
		// recvNs is this frame's arrival time, read lazily on the first
		// timed event so untimed traffic never touches the clock.
		var recvNs int64
		for i := 0; i < count; i++ {
			ev, meta, n, err := decodeWireEvent(body)
			if err != nil {
				r.decodeEr.Add(1)
				return
			}
			body = body[n:]
			if meta.traced {
				if !haveLast || lastRoot != ev.Wave.Root || lastSeq != ev.Wave.RootSeq {
					lastRoot, lastSeq, haveLast = ev.Wave.Root, ev.Wave.RootSeq, true
					if sink != nil {
						// Force before push: the trace context must land in
						// the local tracer before the event can fire
						// downstream.
						sink(ev.Wave.Root, ev.Wave.RootSeq, meta.origin)
					}
					if transitSink != nil && meta.sendNs != 0 {
						if offNs, _, _, _, ok := sc.est.estimate(); ok {
							if recvNs == 0 {
								recvNs = time.Now().UnixNano()
							}
							sentNs := meta.sendNs + offNs // sender clock → local clock
							transit := time.Duration(recvNs - sentNs)
							if transit < 0 {
								transit = 0 // inside the skew error bound
							}
							transitSink(ev.Wave.Root, ev.Wave.RootSeq, meta.origin, sentNs, recvNs, transit)
						}
					}
				}
			}
			if !r.push(recvEvent{ev: ev, src: sc}) {
				return
			}
		}
	}
}

// handleControl processes one count==0 control frame. body starts after the
// seq|count prefix. It reports false on a malformed frame.
func (r *Receiver) handleControl(sc *senderConn, body []byte) bool {
	kind, n := binary.Uvarint(body)
	if n <= 0 {
		return false
	}
	body = body[n:]
	switch kind {
	case skewKindPong:
		t0, n := binary.Varint(body)
		if n <= 0 {
			return false
		}
		body = body[n:]
		ts, n := binary.Varint(body)
		if n <= 0 {
			return false
		}
		body = body[n:]
		origin, n := binary.Uvarint(body)
		if n <= 0 {
			return false
		}
		sc.est.addSample(t0, ts, time.Now().UnixNano())
		if origin != 0 {
			sc.origin.Store(origin)
		}
		return true
	default:
		// Unknown control kinds are skipped, not fatal: a newer sender may
		// speak messages this receiver predates.
		return true
	}
}

// pinger drives the connection's skew exchanges: a short burst at accept so
// an estimate exists before the first traced events arrive, then a slow
// steady cadence that tracks drift. It exits when the serve goroutine
// closes the connection or a write fails.
func (r *Receiver) pinger(sc *senderConn) {
	for i := 0; ; i++ {
		t0 := time.Now().UnixNano()
		buf := make([]byte, 0, 16)
		buf = binary.AppendUvarint(buf, 0) // credit 0: control escape
		buf = binary.AppendUvarint(buf, skewKindPing)
		buf = binary.AppendVarint(buf, t0)
		sc.wmu.Lock()
		_, err := sc.c.Write(buf)
		sc.wmu.Unlock()
		if err != nil {
			return
		}
		wait := skewPingInterval
		if i < skewBurst {
			wait = skewBurstInterval
		}
		select {
		case <-sc.done:
			return
		case <-time.After(wait):
		}
	}
}

// push enqueues one arrival, spinning (and eventually parking 200 µs at a
// time) while the ring is full — the stall that turns into TCP
// backpressure toward the sender. It reports false when the bridge is
// shutting down, counting the event as dropped.
func (r *Receiver) push(re recvEvent) bool {
	spins := 0
	for !r.ring.TryPush(re) {
		if r.closing.Load() {
			r.dropped.Add(1)
			return false
		}
		if spins < 64 {
			spins++
			runtime.Gosched()
		} else {
			clock.Park(context.Background(), time.Now().Add(200*time.Microsecond))
		}
	}
	r.received.Add(1)
	if l := int64(r.ring.Len()); l > r.watermark.Load() {
		r.watermark.Store(l)
	}
	return true
}

// Fire implements model.Actor: re-emit everything queued so far, preserving
// timestamps and wave identity, then grant the drained counts back to the
// senders as credits.
func (r *Receiver) Fire(ctx *model.FireContext) error {
	touched := r.touchScratch[:0]
	for {
		re, ok := r.ring.TryPop()
		if !ok {
			break
		}
		ctx.PutEvent(r.out, re.ev)
		sc := re.src
		sc.pendingAck++
		if !sc.touched {
			sc.touched = true
			touched = append(touched, sc)
		}
		if sc.pendingAck >= ackEvery {
			r.flushAck(sc)
		}
	}
	for i, sc := range touched {
		if sc.pendingAck > 0 {
			r.flushAck(sc)
		}
		sc.touched = false
		touched[i] = nil
	}
	r.touchScratch = touched[:0]
	return nil
}

// flushAck writes one credit grant back to the sender. Write errors are
// ignored: a dead connection means the sender is gone and needs no
// credits. The grant is never zero (callers check pendingAck > 0), so the
// zero count stays free as the control-message escape.
func (r *Receiver) flushAck(sc *senderConn) {
	r.ackBuf = binary.AppendUvarint(r.ackBuf[:0], uint64(sc.pendingAck))
	sc.pendingAck = 0
	sc.wmu.Lock()
	_, _ = sc.c.Write(r.ackBuf)
	sc.wmu.Unlock()
}

// Exhausted implements model.SourceActor: every expected sender has
// connected and finished, and nothing is left to drain.
func (r *Receiver) Exhausted() bool {
	r.cmu.Lock()
	done := (r.acceptDone || r.connsSeen >= r.expect) && r.connsLive == 0
	r.cmu.Unlock()
	return done && r.ring.Len() == 0
}

// Available implements the PushSource pacing contract.
func (r *Receiver) Available(time.Time) bool { return r.ring.Len() > 0 }

// NextEventTime implements the PushSource pacing contract. Remote arrival
// times are not known ahead of time, so no horizon is reported.
func (r *Receiver) NextEventTime() (time.Time, bool) { return time.Time{}, false }

// Wrapup implements model.Actor: stop listening, release any connection
// goroutine stalled on a full ring, and close the remaining connections.
func (r *Receiver) Wrapup() error {
	r.closing.Store(true)
	err := r.ln.Close()
	r.cmu.Lock()
	conns := append([]*senderConn(nil), r.conns...)
	r.cmu.Unlock()
	for _, sc := range conns {
		sc.c.Close()
	}
	return err
}
