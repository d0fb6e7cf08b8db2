package main

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"qgraph/internal/protocol"
	"qgraph/internal/transport"
)

// numTypes bounds the protocol.MsgType values the counters index.
const numTypes = 64

// sendSpanEvery samples one Conn.Send span in this many; every send is
// still counted and timed.
const sendSpanEvery = 64

// netCounters is what the counting wrapper saw at the transport boundary.
type netCounters struct {
	msgs, bytes [numTypes]int64
	sends       int64
	sendNS      int64
	sendErrs    int64
	// Sums over the BarrierSynch reports workers sent.
	computeNS, processed, localIters, interStats int64
}

func (c netCounters) sub(o netCounters) netCounters {
	for t := range c.msgs {
		c.msgs[t] -= o.msgs[t]
		c.bytes[t] -= o.bytes[t]
	}
	c.sends -= o.sends
	c.sendNS -= o.sendNS
	c.sendErrs -= o.sendErrs
	c.computeNS -= o.computeNS
	c.processed -= o.processed
	c.localIters -= o.localIters
	c.interStats -= o.interStats
	return c
}

func (c netCounters) totalMsgs() (n, bytes int64) {
	for t := range c.msgs {
		n += c.msgs[t]
		bytes += c.bytes[t]
	}
	return n, bytes
}

// countingNet wraps a transport.Network. Every Conn.Send is counted by
// message type with its transport.WireSize, timed, and, for BarrierSynch,
// mined for the worker statistics it carries, so worker and transport
// numbers come from outside internal/.
type countingNet struct {
	transport.Network
	conns []*countingConn
	spans *spanLog

	mu sync.Mutex
	c  netCounters
}

func newCountingNet(inner transport.Network, spans *spanLog) *countingNet {
	n := &countingNet{Network: inner, spans: spans}
	for i := 0; i < inner.Nodes(); i++ {
		n.conns = append(n.conns, &countingConn{Conn: inner.Conn(protocol.NodeID(i)), net: n})
	}
	return n
}

// Conn returns the wrapped endpoint of node id; the engine asks for the
// same node again when it respawns a worker, so it is built once.
func (n *countingNet) Conn(id protocol.NodeID) transport.Conn { return n.conns[id] }

func (n *countingNet) snapshot() netCounters {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.c
}

type countingConn struct {
	transport.Conn
	net *countingNet
}

// Send implements transport.Conn.
func (c *countingConn) Send(to protocol.NodeID, m protocol.Message) error {
	start := time.Now()
	err := c.Conn.Send(to, m)
	end := time.Now()
	n := c.net
	n.mu.Lock()
	t := int(m.Type()) % numTypes
	n.c.msgs[t]++
	n.c.bytes[t] += int64(transport.WireSize(m))
	n.c.sends++
	n.c.sendNS += int64(end.Sub(start))
	if err != nil {
		n.c.sendErrs++
	}
	if bs, ok := m.(*protocol.BarrierSynch); ok {
		n.c.computeNS += bs.ComputeNS
		n.c.processed += int64(bs.Processed)
		n.c.localIters += int64(bs.LocalIters)
		n.c.interStats += int64(len(bs.Intersections))
	}
	sample := n.c.sends%sendSpanEvery == 0
	n.mu.Unlock()
	if sample {
		n.spans.add(queryOf(m), 0, "transport.send."+typeName(m), start, end)
	}
	return err
}

// queryOf returns the query a message belongs to (0 for control traffic),
// so sampled send spans join their query's trace.
func queryOf(m protocol.Message) uint64 {
	switch v := m.(type) {
	case *protocol.ExecuteQuery:
		return uint64(v.Spec.ID)
	case *protocol.BarrierReady:
		return uint64(v.Q)
	case *protocol.QueryFinish:
		return uint64(v.Q)
	case *protocol.BarrierSynch:
		return uint64(v.Q)
	case *protocol.VertexBatch:
		return uint64(v.Q)
	}
	return 0
}

func typeName(m protocol.Message) string {
	return strings.TrimPrefix(fmt.Sprintf("%T", m), "*protocol.")
}
