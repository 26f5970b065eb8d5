package distnet

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"net"
	"slices"
	"sort"
	"sync"
	"time"

	"repro/certify"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/graph"
)

// TransportFaults lists the transport-level fault catalog a node's fault
// controller can arm, complementing the label-memory catalog of
// certify.FaultNames. Each is one-shot: it perturbs the next round's
// outgoing label traffic, after which the link discipline recovers.
//
//	drop            omit the labels frame to one peer (round abandons, re-run)
//	duplicate       send every labels frame twice (receiver is idempotent)
//	reorder         resend the previous round's frame first (stale discarded)
//	truncate-frame  tear the frame mid-payload and drop the connection
var TransportFaults = []string{"drop", "duplicate", "reorder", "truncate-frame"}

// NodeConfig configures one partition host. Zero durations take the
// documented defaults.
type NodeConfig struct {
	Graph       *certify.Graph
	Certificate *certify.Certificate
	// Property selects the certified property under verification (default:
	// the certificate's first property).
	Property string
	// Part is this process's partition index in [0, Parts).
	Part int
	// Parts is the cluster's partition count.
	Parts int
	// Addr is the TCP listen address (e.g. "127.0.0.1:0"; see Node.Addr).
	Addr string

	// RoundTimeout bounds the label-gather phase of one round (default 3s):
	// a peer whose labels do not arrive in time makes the round incomplete.
	RoundTimeout time.Duration
	// DialTimeout bounds one peer dial attempt (default 2s).
	DialTimeout time.Duration
	// WriteTimeout bounds one frame write (default 2s).
	WriteTimeout time.Duration
	// MaxBackoff caps the jittered exponential reconnect backoff of outgoing
	// peer links (default 2s; base 50ms, doubling).
	MaxBackoff time.Duration
	// HeartbeatInterval is the idle-link ping cadence (default 500ms).
	HeartbeatInterval time.Duration

	// Logf, when set, receives one-line operational events (reconnects,
	// protocol violations, fault injections).
	Logf func(format string, args ...any)
}

func (c NodeConfig) withDefaults() NodeConfig {
	if c.RoundTimeout <= 0 {
		c.RoundTimeout = 3 * time.Second
	}
	if c.DialTimeout <= 0 {
		c.DialTimeout = 2 * time.Second
	}
	if c.WriteTimeout <= 0 {
		c.WriteTimeout = 2 * time.Second
	}
	if c.MaxBackoff <= 0 {
		c.MaxBackoff = 2 * time.Second
	}
	if c.HeartbeatInterval <= 0 {
		c.HeartbeatInterval = 500 * time.Millisecond
	}
	return c
}

// Node hosts one partition of a distributed verification cluster: the label
// memory of every edge incident to its vertex block, an outgoing label link
// per peer partition, and a listener serving peer label traffic and
// coordinator control connections. Create with NewNode (binds the
// listener), wire with Start, stop with Close. A restarted node reloads
// pristine label memory from the certificate — recovery in the
// self-stabilization model is exactly "reload the proof".
type Node struct {
	cfg  NodeConfig
	cl   *cluster
	part int
	ln   net.Listener

	locals   []graph.Vertex
	needFrom []int                // peers whose labels each round needs
	cutOut   map[int][]graph.Edge // oriented outgoing cut darts, per peer
	cutIn    map[int]map[graph.Edge]bool

	// memMu guards the label memory and the armed transport fault. Labels
	// are corrupted copy-on-write, so the cluster's pristine labeling stays
	// honest for heal.
	memMu           sync.Mutex
	mem             map[graph.Edge]*core.EdgeLabel
	transportFault  string
	transportTarget int

	// roundMu guards the round window: the current round, the per-round
	// receive state for rounds cur and cur+1, and nothing older — frames
	// from any other round are stragglers or duplicates and are discarded.
	roundMu sync.Mutex
	cur     uint64
	started bool
	rounds  map[uint64]*roundState

	// runMu serializes round execution (one verification round at a time).
	runMu    sync.Mutex
	lastSent map[int][]byte // previous round's frame per peer (reorder fault)

	links map[int]*peerLink

	seenMu sync.Mutex
	seen   map[int]time.Time // incoming peer liveness (hello, labels, pings)

	connMu sync.Mutex
	conns  map[net.Conn]struct{}

	closed    chan struct{}
	closeOnce sync.Once
	wg        sync.WaitGroup
}

// roundState collects the label frames received for one round: each
// peer's copies of the cut-edge labels, by edge, as the bits it sent.
type roundState struct {
	got       map[int]map[graph.Edge]labelEntry
	done      chan struct{}
	completed bool
}

// NewNode validates the cluster tuple, derives this partition's label
// memory, and binds the listener (so Addr is known before Start wires the
// peers).
func NewNode(cfg NodeConfig) (*Node, error) {
	cfg = cfg.withDefaults()
	cl, err := buildCluster(cfg.Graph, cfg.Certificate, cfg.Property, cfg.Parts)
	if err != nil {
		return nil, err
	}
	if cfg.Part < 0 || cfg.Part >= cfg.Parts {
		return nil, fmt.Errorf("distnet: partition %d out of range [0, %d)", cfg.Part, cfg.Parts)
	}
	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		return nil, fmt.Errorf("distnet: listen: %w", err)
	}
	n := &Node{
		cfg:             cfg,
		cl:              cl,
		part:            cfg.Part,
		ln:              ln,
		locals:          cl.localVertices(cfg.Part),
		cutOut:          map[int][]graph.Edge{},
		cutIn:           map[int]map[graph.Edge]bool{},
		mem:             cl.localMemory(cfg.Part),
		transportTarget: -1,
		rounds:          map[uint64]*roundState{},
		lastSent:        map[int][]byte{},
		links:           map[int]*peerLink{},
		seen:            map[int]time.Time{},
		conns:           map[net.Conn]struct{}{},
		closed:          make(chan struct{}),
	}
	for p := 0; p < cfg.Parts; p++ {
		if p == cfg.Part {
			continue
		}
		if out := cl.cutEdges(cfg.Part, p); len(out) > 0 {
			n.cutOut[p] = out
		}
		if in := cl.cutEdges(p, cfg.Part); len(in) > 0 {
			n.needFrom = append(n.needFrom, p)
			set := make(map[graph.Edge]bool, len(in))
			for _, e := range in {
				set[graph.NewEdge(e.U, e.V)] = true
			}
			n.cutIn[p] = set
		}
	}
	sort.Ints(n.needFrom)
	return n, nil
}

// Addr returns the listener's actual address (resolving a ":0" request).
func (n *Node) Addr() string { return n.ln.Addr().String() }

// Part returns this node's partition index.
func (n *Node) Part() int { return n.part }

// Property returns the certified property this node verifies.
func (n *Node) Property() string { return n.cl.property }

// ClusterFingerprint returns the handshake fingerprint of this node's
// cluster configuration.
func (n *Node) ClusterFingerprint() uint64 { return n.cl.fp }

// Start wires the node into the cluster: peerAddrs[i] is partition i's
// listen address (this node's own entry is ignored). It starts the accept
// loop and one outgoing label link per peer this partition shares cut edges
// with.
func (n *Node) Start(peerAddrs []string) error {
	if len(peerAddrs) != n.cl.parts {
		return fmt.Errorf("distnet: %d peer addresses for %d partitions", len(peerAddrs), n.cl.parts)
	}
	hello := appendFrame(nil, frameHello, encodeHello(helloMsg{role: roleVertex, part: n.part, cluster: n.cl.fp}))
	for p := range n.cutOut {
		l := &peerLink{
			node:  n,
			part:  p,
			addr:  peerAddrs[p],
			hello: hello,
			ch:    make(chan outFrame, 8),
			rng:   rand.New(rand.NewSource(int64(n.part)<<16 | int64(p))),
		}
		n.links[p] = l
		n.wg.Add(1)
		go l.loop()
	}
	n.wg.Add(1)
	go n.acceptLoop()
	return nil
}

// Close stops the node: the listener, every connection, and all goroutines.
func (n *Node) Close() error {
	n.closeOnce.Do(func() {
		close(n.closed)
		n.ln.Close()
		n.connMu.Lock()
		for c := range n.conns {
			c.Close()
		}
		n.connMu.Unlock()
	})
	n.wg.Wait()
	return nil
}

// PeersSeen snapshots incoming peer liveness: the last instant each peer
// partition was heard from (hello, label traffic, or heartbeat ping).
func (n *Node) PeersSeen() map[int]time.Time {
	n.seenMu.Lock()
	defer n.seenMu.Unlock()
	out := make(map[int]time.Time, len(n.seen))
	for p, t := range n.seen {
		out[p] = t
	}
	return out
}

func (n *Node) logf(format string, args ...any) {
	if n.cfg.Logf != nil {
		n.cfg.Logf(format, args...)
	}
}

func (n *Node) noteSeen(p int) {
	n.seenMu.Lock()
	n.seen[p] = time.Now()
	n.seenMu.Unlock()
}

// ---- accept side ----

func (n *Node) acceptLoop() {
	defer n.wg.Done()
	for {
		c, err := n.ln.Accept()
		if err != nil {
			select {
			case <-n.closed:
				return
			default:
				n.logf("distnet[%d]: accept: %v", n.part, err)
				continue
			}
		}
		n.connMu.Lock()
		n.conns[c] = struct{}{}
		n.connMu.Unlock()
		n.wg.Add(1)
		go n.handleConn(c)
	}
}

func (n *Node) dropConn(c net.Conn) {
	c.Close()
	n.connMu.Lock()
	delete(n.conns, c)
	n.connMu.Unlock()
}

func (n *Node) handleConn(c net.Conn) {
	defer n.wg.Done()
	defer n.dropConn(c)
	br := bufio.NewReader(c)
	// The hello must arrive promptly; idle unknown connections are dropped.
	_ = c.SetReadDeadline(time.Now().Add(5 * time.Second))
	t, payload, err := readFrame(br)
	if err != nil || t != frameHello {
		return
	}
	hello, err := decodeHello(payload)
	if err != nil {
		n.logf("distnet[%d]: bad hello: %v", n.part, err)
		return
	}
	if hello.cluster != n.cl.fp {
		n.logf("distnet[%d]: refusing connection for foreign cluster %016x", n.part, hello.cluster)
		return
	}
	_ = c.SetReadDeadline(time.Time{})
	switch hello.role {
	case roleVertex:
		n.noteSeen(hello.part)
		n.servePeer(c, br, hello.part)
	case roleControl:
		n.serveControl(c, br)
	}
}

// servePeer consumes one peer partition's label traffic. Any protocol
// violation — including a frame whose entry set is not exactly the cut-dart
// set the two partitions share — closes the connection; the peer's link
// discipline reconnects, and the round in flight is abandoned rather than
// mis-scored.
func (n *Node) servePeer(c net.Conn, br *bufio.Reader, from int) {
	expect := n.cutIn[from]
	for {
		t, payload, err := readFrame(br)
		if err != nil {
			return
		}
		switch t {
		case framePing:
			n.noteSeen(from)
		case frameLabels:
			msg, err := decodeLabels(payload, len(expect))
			if err != nil {
				n.logf("distnet[%d]: labels from %d: %v", n.part, from, err)
				return
			}
			if msg.from != from {
				n.logf("distnet[%d]: peer %d claims partition %d", n.part, from, msg.from)
				return
			}
			got, err := indexCutLabels(msg, expect)
			if err != nil {
				n.logf("distnet[%d]: labels from %d: %v", n.part, from, err)
				return
			}
			n.noteSeen(from)
			n.deliver(msg.round, from, got)
		default:
			n.logf("distnet[%d]: unexpected %d frame on peer link", n.part, t)
			return
		}
	}
}

// indexCutLabels turns a labels frame into this round's remote-copy map,
// enforcing that the entries are exactly the shared cut darts. The copies
// stay as the bits the peer sent: decide compares them with the node's own
// copies bit for bit, so none is ever decoded. A bits==0 entry is the peer
// declaring "no label in memory" — a legitimate corrupted state, rejected
// by the agreement check, not a protocol violation.
func indexCutLabels(msg labelsMsg, expect map[graph.Edge]bool) (map[graph.Edge]labelEntry, error) {
	if len(msg.entries) != len(expect) {
		return nil, fmt.Errorf("%w: %d entries for %d shared cut darts", ErrProtocol, len(msg.entries), len(expect))
	}
	out := make(map[graph.Edge]labelEntry, len(msg.entries))
	for _, e := range msg.entries {
		key := graph.NewEdge(e.u, e.v)
		if !expect[key] {
			return nil, fmt.Errorf("%w: edge {%d,%d} is not a shared cut dart", ErrProtocol, e.u, e.v)
		}
		if _, dup := out[key]; dup {
			return nil, fmt.Errorf("%w: duplicate cut dart {%d,%d}", ErrProtocol, e.u, e.v)
		}
		out[key] = e
	}
	return out, nil
}

// deliver files a peer's label copies under their round. Only the current
// round and the next are live: older frames are stragglers or duplicates of
// an abandoned round, newer ones cannot be trusted to belong to any round
// this node will run — both are discarded, never mixed into the wrong round.
func (n *Node) deliver(round uint64, from int, got map[graph.Edge]labelEntry) {
	n.roundMu.Lock()
	defer n.roundMu.Unlock()
	if n.started && (round < n.cur || round > n.cur+1) {
		return
	}
	st := n.ensureRound(round)
	st.got[from] = got // duplicates overwrite idempotently
	if round == n.cur {
		n.maybeComplete(st)
	}
}

// ensureRound returns the receive state for a round, creating it if needed.
// Callers hold roundMu.
func (n *Node) ensureRound(round uint64) *roundState {
	st, ok := n.rounds[round]
	if !ok {
		st = &roundState{got: map[int]map[graph.Edge]labelEntry{}, done: make(chan struct{})}
		n.rounds[round] = st
	}
	return st
}

// maybeComplete closes the round's barrier once every needed peer has
// delivered. Callers hold roundMu.
func (n *Node) maybeComplete(st *roundState) {
	if st.completed {
		return
	}
	for _, p := range n.needFrom {
		if _, ok := st.got[p]; !ok {
			return
		}
	}
	st.completed = true
	close(st.done)
}

// ---- control side ----

func (n *Node) serveControl(c net.Conn, br *bufio.Reader) {
	write := func(t frameType, payload []byte) bool {
		_ = c.SetWriteDeadline(time.Now().Add(n.cfg.WriteTimeout))
		_, err := c.Write(appendFrame(nil, t, payload))
		return err == nil
	}
	for {
		t, payload, err := readFrame(br)
		if err != nil {
			return
		}
		switch t {
		case frameRoundStart:
			r, err := decodeRoundStart(payload)
			if err != nil {
				return
			}
			v := n.runRound(r)
			if !write(frameVerdict, encodeVerdict(v)) {
				return
			}
		case framePing:
			nonce, err := decodeNonce(payload)
			if err != nil {
				return
			}
			if !write(framePong, encodeNonce(nonce)) {
				return
			}
		case frameFault:
			m, err := decodeFault(payload)
			if err != nil {
				return
			}
			ack := n.applyFault(m)
			if !write(frameFaultAck, encodeFaultAck(ack)) {
				return
			}
		default:
			n.logf("distnet[%d]: unexpected %d frame on control link", n.part, t)
			return
		}
	}
}

// applyFault is the node's fault controller: it corrupts live label memory
// (the dist catalog, copy-on-write against the pristine labeling), arms a
// one-shot transport fault, or heals. Faults apply between rounds — the
// control connection serializes them against round execution.
func (n *Node) applyFault(m faultMsg) faultAckMsg {
	switch m.kind {
	case faultKindHeal:
		n.memMu.Lock()
		n.mem = n.cl.localMemory(n.part)
		n.transportFault, n.transportTarget = "", -1
		n.memMu.Unlock()
		n.logf("distnet[%d]: healed", n.part)
		return faultAckMsg{applied: true, detail: "label memory restored, transport faults disarmed"}
	case faultKindMemory:
		var fault dist.Fault
		found := false
		for _, f := range dist.AllFaults {
			if f.String() == m.name {
				fault, found = f, true
				break
			}
		}
		if !found {
			return faultAckMsg{applied: false, detail: fmt.Sprintf("unknown memory fault %q", m.name)}
		}
		rng := rand.New(rand.NewSource(m.seed))
		n.memMu.Lock()
		defer n.memMu.Unlock()
		edges := slices.SortedFunc(maps.Keys(n.mem), graph.CompareEdges)
		e, el, ok := dist.Inject(rng, edges, func(e graph.Edge) *core.EdgeLabel { return n.mem[e] }, fault)
		if !ok {
			return faultAckMsg{applied: false, detail: fmt.Sprintf("fault %s not applicable to any local label", m.name)}
		}
		n.mem = maps.Clone(n.mem)
		n.mem[e] = el
		n.logf("distnet[%d]: injected memory fault %s", n.part, m.name)
		return faultAckMsg{applied: true, detail: fmt.Sprintf("memory fault %s injected", m.name)}
	case faultKindTransport:
		valid := false
		for _, name := range TransportFaults {
			if name == m.name {
				valid = true
				break
			}
		}
		if !valid {
			return faultAckMsg{applied: false, detail: fmt.Sprintf("unknown transport fault %q", m.name)}
		}
		peers := n.outPeers()
		if len(peers) == 0 {
			return faultAckMsg{applied: false, detail: "no peer links to perturb"}
		}
		rng := rand.New(rand.NewSource(m.seed))
		n.memMu.Lock()
		n.transportFault = m.name
		n.transportTarget = peers[rng.Intn(len(peers))]
		n.memMu.Unlock()
		n.logf("distnet[%d]: armed transport fault %s", n.part, m.name)
		return faultAckMsg{applied: true, detail: fmt.Sprintf("transport fault %s armed for next round", m.name)}
	}
	return faultAckMsg{applied: false, detail: "unknown fault kind"}
}

// outPeers lists the peer partitions this node sends cut labels to, sorted.
func (n *Node) outPeers() []int {
	out := make([]int, 0, len(n.cutOut))
	for p := range n.cutOut {
		out = append(out, p)
	}
	sort.Ints(out)
	return out
}

// ---- round execution ----

// runRound executes one verification round: snapshot label memory, publish
// cut-dart copies to every peer, gather the peers' copies for this round
// number, and decide every local vertex.
// A peer whose copies never arrive makes the verdict incomplete — the
// coordinator abandons the round and re-runs it, so detection latency
// degrades under churn but a verdict is never computed from a partial or
// mixed-round exchange.
func (n *Node) runRound(r uint64) verdictMsg {
	n.runMu.Lock()
	defer n.runMu.Unlock()

	n.roundMu.Lock()
	if n.started && r < n.cur {
		n.roundMu.Unlock()
		return verdictMsg{round: r, incomplete: true} // stale start
	}
	n.started = true
	n.cur = r
	for old := range n.rounds {
		if old < r || old > r+1 {
			delete(n.rounds, old)
		}
	}
	st := n.ensureRound(r)
	n.maybeComplete(st)
	n.roundMu.Unlock()

	// Snapshot label memory and consume the armed transport fault.
	n.memMu.Lock()
	snap := make(map[graph.Edge]*core.EdgeLabel, len(n.mem))
	for e, l := range n.mem {
		snap[e] = l
	}
	tf, target := n.transportFault, n.transportTarget
	n.transportFault, n.transportTarget = "", -1
	n.memMu.Unlock()

	n.sendCutLabels(r, snap, tf, target)

	if len(n.needFrom) > 0 {
		timer := time.NewTimer(n.cfg.RoundTimeout)
		select {
		case <-st.done:
			timer.Stop()
		case <-timer.C:
		case <-n.closed:
			timer.Stop()
			return verdictMsg{round: r, incomplete: true}
		}
	}

	n.roundMu.Lock()
	complete := st.completed || len(n.needFrom) == 0
	// Shallow-copy the receive table: a straggling duplicate frame may make
	// deliver overwrite st.got[from] while the verification loop below reads
	// it outside the lock. Inner maps are filed whole and never mutated
	// after delivery, so copying the outer map alone is race-free.
	got := make(map[int]map[graph.Edge]labelEntry, len(st.got))
	for from, labels := range st.got {
		got[from] = labels
	}
	n.roundMu.Unlock()
	if !complete {
		return verdictMsg{round: r, incomplete: true}
	}

	v := verdictMsg{round: r, accepted: true}
	var c roundCheck // serves every local vertex
	for _, u := range n.locals {
		if !n.decide(&c, u, snap, got) {
			v.accepted = false
			v.rejectedTotal++
			if len(v.rejected) < maxWireRejected {
				v.rejected = append(v.rejected, u)
			}
		}
	}
	return v
}

// roundCheck is the memory a round's decisions reuse from vertex to vertex:
// the verifier's scratch, the view's label list, and the buffer an own copy
// is encoded into for comparison. The zero value is ready to use.
type roundCheck struct {
	scratch core.Scratch
	labels  []*core.EdgeLabel
	own     []byte
}

// decide is vertex u's round-end decision. Every incident edge must have a
// label in u's memory, and for a cut edge the peer's copy must have the bit
// count and bytes of the own copy's canonical encoding: asymmetric memory
// corruption is exactly a disagreement between the two copies, and an
// honest peer sends the canonical bytes, so a copy the peer reports absent
// or that differs in any bit rejects. A local edge's two endpoints share
// this node's memory, so its copies agree. The local verifier of Theorem 1
// then decides u's view of its own copies.
func (n *Node) decide(c *roundCheck, u graph.Vertex, snap map[graph.Edge]*core.EdgeLabel, got map[int]map[graph.Edge]labelEntry) bool {
	neighbors := n.cl.g.Neighbors(u)
	c.labels = c.labels[:0]
	for _, w := range neighbors {
		e := graph.NewEdge(u, w)
		l := snap[e]
		if l == nil {
			return false
		}
		if p := PartOf(w, n.cl.g.N(), n.cl.parts); p != n.part {
			peer := got[p][e]
			var nbits int
			c.own, nbits = core.AppendLabel(c.own[:0], l)
			if peer.bits != nbits || !bytes.Equal(peer.data, c.own) {
				return false
			}
		}
		c.labels = append(c.labels, l)
	}
	view := core.VertexView{ID: n.cl.cfg.IDs[u], Input: n.cl.cfg.Input(u), Isolated: len(neighbors) == 0, Labels: c.labels}
	return n.cl.scheme.VerifyAtWith(&view, &c.scratch)
}

// sendCutLabels publishes this round's cut-dart copies to every peer,
// applying at most one armed transport fault.
func (n *Node) sendCutLabels(r uint64, snap map[graph.Edge]*core.EdgeLabel, tf string, target int) {
	for _, p := range n.outPeers() {
		entries := make([]labelEntry, 0, len(n.cutOut[p]))
		for _, dart := range n.cutOut[p] {
			l := snap[graph.NewEdge(dart.U, dart.V)]
			if l == nil {
				entries = append(entries, labelEntry{u: dart.U, v: dart.V})
				continue
			}
			data, nbits := core.EncodeLabel(l)
			entries = append(entries, labelEntry{u: dart.U, v: dart.V, bits: nbits, data: data})
		}
		frame := appendFrame(nil, frameLabels, encodeLabels(labelsMsg{round: r, from: n.part, entries: entries}))
		link := n.links[p]
		switch {
		case tf == "drop" && p == target:
			n.logf("distnet[%d]: dropping round %d labels to %d", n.part, r, p)
		case tf == "truncate-frame" && p == target:
			link.send(outFrame{data: frame, truncate: true})
		case tf == "duplicate":
			link.send(outFrame{data: frame})
			link.send(outFrame{data: frame})
		case tf == "reorder":
			if last := n.lastSent[p]; last != nil {
				link.send(outFrame{data: last}) // the straggler arrives first
			}
			link.send(outFrame{data: frame})
		default:
			link.send(outFrame{data: frame})
		}
		n.lastSent[p] = frame
	}
}

// ---- outgoing peer links ----

// outFrame is one frame queued on an outgoing link. truncate tears the
// write mid-frame and drops the connection (the transport fault).
type outFrame struct {
	data     []byte
	truncate bool
}

// peerLink maintains one outgoing label connection: dial on demand with
// jittered exponential backoff, write frames under a deadline, ping when
// idle, reconnect after any error. Frames that cannot be delivered are
// dropped — the round abandons and re-runs, so the link never buffers
// without bound behind a dead peer.
type peerLink struct {
	node  *Node
	part  int
	addr  string
	hello []byte
	ch    chan outFrame
	rng   *rand.Rand
}

// send enqueues a frame, dropping it when the link's queue is full (a stuck
// peer must not block round execution).
func (l *peerLink) send(f outFrame) {
	select {
	case l.ch <- f:
	default:
		l.node.logf("distnet[%d]: link to %d saturated, dropping frame", l.node.part, l.part)
	}
}

func (l *peerLink) loop() {
	defer l.node.wg.Done()
	var conn net.Conn
	backoff := 50 * time.Millisecond
	var nextDial time.Time

	closeConn := func() {
		if conn != nil {
			conn.Close()
			conn = nil
		}
	}
	defer closeConn()

	// ensure dials (with hello) unless the backoff gate is still closed.
	ensure := func() bool {
		if conn != nil {
			return true
		}
		if time.Now().Before(nextDial) {
			return false
		}
		c, err := net.DialTimeout("tcp", l.addr, l.node.cfg.DialTimeout)
		if err == nil {
			_ = c.SetWriteDeadline(time.Now().Add(l.node.cfg.WriteTimeout))
			if _, werr := c.Write(l.hello); werr == nil {
				conn = c
				backoff = 50 * time.Millisecond
				return true
			}
			c.Close()
			err = errors.New("hello write failed")
		}
		// Jittered exponential backoff: ±50% around the doubling base.
		jitter := time.Duration(float64(backoff) * (0.5 + l.rng.Float64()))
		nextDial = time.Now().Add(jitter)
		if backoff *= 2; backoff > l.node.cfg.MaxBackoff {
			backoff = l.node.cfg.MaxBackoff
		}
		l.node.logf("distnet[%d]: dial %d (%s): %v, retry in %v", l.node.part, l.part, l.addr, err, jitter)
		return false
	}

	write := func(b []byte) {
		if !ensure() {
			return
		}
		_ = conn.SetWriteDeadline(time.Now().Add(l.node.cfg.WriteTimeout))
		if _, err := conn.Write(b); err != nil {
			l.node.logf("distnet[%d]: write to %d: %v", l.node.part, l.part, err)
			closeConn()
		}
	}

	ping := appendFrame(nil, framePing, encodeNonce(uint64(l.node.part)))
	idle := time.NewTicker(l.node.cfg.HeartbeatInterval)
	defer idle.Stop()
	for {
		select {
		case <-l.node.closed:
			return
		case f := <-l.ch:
			if f.truncate {
				if ensure() {
					_ = conn.SetWriteDeadline(time.Now().Add(l.node.cfg.WriteTimeout))
					_, _ = conn.Write(f.data[:len(f.data)/2])
					l.node.logf("distnet[%d]: truncated frame to %d, tearing link", l.node.part, l.part)
					closeConn()
				}
				continue
			}
			write(f.data)
		case <-idle.C:
			// Heartbeat: keeps the peer's liveness view fresh and detects a
			// dead connection between rounds instead of during one.
			if conn != nil {
				write(ping)
			}
		}
	}
}
