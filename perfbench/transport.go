package main

import (
	"fmt"
	"sync/atomic"

	"charmgo/internal/transport"
)

// bufTransport is what the decorator needs from the endpoint it wraps: the
// transport plus both zero-copy send paths core type-asserts for. Wrapping
// an endpoint without them would switch core onto its copy path and the
// traced run would measure a different program.
type bufTransport interface {
	transport.Transport
	transport.BufSender
	transport.SharedBufSender
}

// peerAliver is the liveness view core type-asserts on its transport to
// feed introspection (a failure detector provides it).
type peerAliver interface{ PeerAlive(node int) bool }

// transportStats counts what the decorated endpoints did, summed over
// every endpoint sharing it.
type transportStats struct {
	frames, bytes, sendNS atomic.Int64 // frames handed to the endpoint, payload bytes, time in Send*
	handled, handledNS    atomic.Int64 // inbound handler calls and time in them
}

// tracedEndpoint times every frame an endpoint sends and every inbound
// handler call (decode plus mailbox enqueue), and records each as a span
// under the operation in progress.
type tracedEndpoint struct {
	inner bufTransport
	st    *transportStats
	spans *spanLog // nil: count only
	op    *atomic.Int64
}

// aliveEndpoint is a tracedEndpoint over an endpoint that also reports
// peer liveness; the method is forwarded so core sees the same interfaces
// on the wrapped endpoint as on the bare one.
type aliveEndpoint struct {
	*tracedEndpoint
	alive peerAliver
}

// PeerAlive forwards the wrapped endpoint's liveness view.
func (e aliveEndpoint) PeerAlive(node int) bool { return e.alive.PeerAlive(node) }

// wrapEndpoint decorates ep. spans may be nil; op names the operation span
// new spans hang under.
func wrapEndpoint(ep transport.Transport, st *transportStats, spans *spanLog, op *atomic.Int64) (transport.Transport, error) {
	bt, ok := ep.(bufTransport)
	if !ok {
		return nil, fmt.Errorf("perfbench: endpoint %T lacks the zero-copy send paths", ep)
	}
	te := &tracedEndpoint{inner: bt, st: st, spans: spans, op: op}
	if pa, ok := ep.(peerAliver); ok {
		return aliveEndpoint{te, pa}, nil
	}
	return te, nil
}

// NodeID implements transport.Transport.
func (e *tracedEndpoint) NodeID() int { return e.inner.NodeID() }

// NumNodes implements transport.Transport.
func (e *tracedEndpoint) NumNodes() int { return e.inner.NumNodes() }

// Close implements transport.Transport.
func (e *tracedEndpoint) Close() error { return e.inner.Close() }

// Send implements transport.Transport.
func (e *tracedEndpoint) Send(node int, frame []byte) error {
	t0 := e.spans.now()
	err := e.inner.Send(node, frame)
	e.sent(1, len(frame), t0)
	return err
}

// SendBuf implements transport.BufSender; ownership of buf passes on.
func (e *tracedEndpoint) SendBuf(node int, buf []byte) error {
	n := len(buf) - transport.PrefixLen
	t0 := e.spans.now()
	err := e.inner.SendBuf(node, buf)
	e.sent(1, n, t0)
	return err
}

// SendBufShared implements transport.SharedBufSender; ownership of buf
// passes on.
func (e *tracedEndpoint) SendBufShared(nodes []int, buf []byte) error {
	n := len(buf) - transport.PrefixLen
	t0 := e.spans.now()
	err := e.inner.SendBufShared(nodes, buf)
	e.sent(len(nodes), n*len(nodes), t0)
	return err
}

func (e *tracedEndpoint) sent(frames, bytes int, t0 int64) {
	t1 := e.spans.now()
	e.st.frames.Add(int64(frames))
	e.st.bytes.Add(int64(bytes))
	e.st.sendNS.Add(t1 - t0)
	e.spans.add("transport.send", e.op.Load(), e.op.Load(), t0, t1)
}

// SetHandler implements transport.Transport, timing each handler call.
func (e *tracedEndpoint) SetHandler(h transport.Handler) {
	e.inner.SetHandler(func(from int, frame []byte) {
		t0 := e.spans.now()
		h(from, frame)
		t1 := e.spans.now()
		e.st.handled.Add(1)
		e.st.handledNS.Add(t1 - t0)
		e.spans.add("transport.handler", e.op.Load(), e.op.Load(), t0, t1)
	})
}
