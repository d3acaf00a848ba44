// Package mp is the message-passing substrate that stands in for MPI.
//
// A World runs an SPMD body on NRanks ranks; each rank is a goroutine with a
// private mailbox, a virtual clock (internal/vclock) and a view of the job
// topology (which node each rank lives on, which EC2 placement group each
// node belongs to). Point-to-point sends move real data between goroutines
// and simultaneously charge virtual communication time computed by the
// platform's network fabric (internal/netmodel), so a run yields both a
// numerical result that can be verified against exact solutions and a
// per-phase virtual-time profile that stands in for the paper's wall-clock
// measurements.
//
// Collective operations (Barrier, Bcast, Reduce, Allreduce, Gather,
// Allgather, Alltoall) are implemented on top of point-to-point messages
// with binomial-tree / ring algorithms, so their virtual cost emerges from
// the same network model rather than being postulated separately.
package mp

import (
	"fmt"
	"sync"
	"sync/atomic"

	"heterohpc/internal/netmodel"
	"heterohpc/internal/obs"
	"heterohpc/internal/vclock"
)

// Topology describes how job ranks map onto nodes and placement groups.
type Topology struct {
	// NodeOf maps rank -> node index; its length is the rank count.
	NodeOf []int
	// GroupOfNode maps node index -> placement-group index. All-zero for
	// physical clusters; EC2 "mix" assemblies use several groups.
	GroupOfNode []int
	// ranksOnNode caches the number of job ranks per node (the NIC share).
	ranksOnNode []int
}

// BlockTopology places nranks ranks onto consecutive nodes, ranksPerNode at
// a time, all in placement group 0. This matches how PBS/SGE fill nodes and
// how the paper packed 16 ranks per cc2.8xlarge instance.
func BlockTopology(nranks, ranksPerNode int) (Topology, error) {
	if nranks < 1 {
		return Topology{}, fmt.Errorf("mp: nranks %d < 1", nranks)
	}
	if ranksPerNode < 1 {
		return Topology{}, fmt.Errorf("mp: ranksPerNode %d < 1", ranksPerNode)
	}
	nodeOf := make([]int, nranks)
	for r := range nodeOf {
		nodeOf[r] = r / ranksPerNode
	}
	nnodes := (nranks + ranksPerNode - 1) / ranksPerNode
	return NewTopology(nodeOf, make([]int, nnodes))
}

// NewTopology builds a topology from explicit rank->node and node->group
// maps, validating their consistency.
func NewTopology(nodeOf, groupOfNode []int) (Topology, error) {
	if len(nodeOf) == 0 {
		return Topology{}, fmt.Errorf("mp: empty topology")
	}
	nnodes := len(groupOfNode)
	ranksOn := make([]int, nnodes)
	for r, n := range nodeOf {
		if n < 0 || n >= nnodes {
			return Topology{}, fmt.Errorf("mp: rank %d on node %d, have %d nodes", r, n, nnodes)
		}
		ranksOn[n]++
	}
	for n, k := range ranksOn {
		if k == 0 {
			return Topology{}, fmt.Errorf("mp: node %d has no ranks", n)
		}
	}
	for n, g := range groupOfNode {
		if g < 0 {
			return Topology{}, fmt.Errorf("mp: node %d in negative group %d", n, g)
		}
	}
	return Topology{NodeOf: nodeOf, GroupOfNode: groupOfNode, ranksOnNode: ranksOn}, nil
}

// NRanks returns the number of ranks in the topology.
func (t Topology) NRanks() int { return len(t.NodeOf) }

// NNodes returns the number of nodes in the topology.
func (t Topology) NNodes() int { return len(t.GroupOfNode) }

// SameNode reports whether ranks a and b share a node.
func (t Topology) SameNode(a, b int) bool { return t.NodeOf[a] == t.NodeOf[b] }

// SameGroup reports whether ranks a and b are in the same placement group.
func (t Topology) SameGroup(a, b int) bool {
	return t.GroupOfNode[t.NodeOf[a]] == t.GroupOfNode[t.NodeOf[b]]
}

// NICShare returns the number of job ranks sharing rank r's NIC.
func (t Topology) NICShare(r int) int { return t.ranksOnNode[t.NodeOf[r]] }

// message is one in-flight payload. Payloads are private to the message —
// either defensive copies or freshly packed pool buffers — so a sender may
// reuse its buffer immediately (MPI buffered-send semantics).
type message struct {
	src, tag int
	f64      []float64
	ints     []int
	bytes    []byte
	// arriveAt is the sender's virtual time at which the payload is fully
	// delivered; the receiver's clock advances to at least this time.
	arriveAt float64
}

// msgKey identifies a matched-receive queue.
type msgKey struct{ src, tag int }

// msgQueue is a FIFO of messages that recycles its backing array: popping
// the last element rewinds the queue in place, so a queue that drains every
// iteration (the steady-state pattern) never reallocates.
type msgQueue struct {
	buf  []message
	head int
}

func (q *msgQueue) push(m message) {
	if cap(q.buf) == 0 {
		// Most queues hold a handful of messages; skip the 1→2→4 append
		// growth so a queue's backing array is a single allocation.
		q.buf = make([]message, 0, 4)
	}
	q.buf = append(q.buf, m)
}

func (q *msgQueue) empty() bool { return q.head == len(q.buf) }

func (q *msgQueue) len() int { return len(q.buf) - q.head }

func (q *msgQueue) pop() message {
	m := q.buf[q.head]
	q.buf[q.head] = message{} // drop payload references
	q.head++
	if q.head == len(q.buf) {
		q.buf = q.buf[:0]
		q.head = 0
	}
	return m
}

// popTag removes and returns the oldest message with the given tag,
// preserving the order of the rest. Messages of one tag are delivered in
// send order; the scan only walks past head when collectives with distinct
// tags are simultaneously in flight.
func (q *msgQueue) popTag(tag int) (message, bool) {
	for i := q.head; i < len(q.buf); i++ {
		if q.buf[i].tag == tag {
			m := q.buf[i]
			copy(q.buf[i:], q.buf[i+1:])
			q.buf[len(q.buf)-1] = message{}
			q.buf = q.buf[:len(q.buf)-1]
			if q.head == len(q.buf) {
				q.buf = q.buf[:0]
				q.head = 0
			}
			return m, true
		}
	}
	return message{}, false
}

// mailbox is an unbounded matched-receive queue with O(1) matching for both
// directed receives (per-(src,tag) queues) and any-source receives (per-tag
// arrival FIFOs).
//
// Only the owning rank's goroutine ever blocks on cond (sends and the
// revoke/markDead paths never wait), so put can wake it with a single
// Signal instead of a Broadcast.
type mailbox struct {
	mu   sync.Mutex
	cond *sync.Cond
	// pending holds directed application traffic (tag >= 0). Queues stay
	// resident when drained — the same (src,tag) pairs recur every
	// iteration.
	pending map[msgKey]*msgQueue
	// coll holds collective traffic (tag < 0), one FIFO per source rank,
	// allocated on first use. Collective tags are unique per collective;
	// keying them into the pending map would churn its buckets with
	// insert/delete on every operation, so they are matched by a scan of
	// the (nearly always length-≤1) per-source FIFO instead.
	coll []msgQueue
	// anyQ holds any-source traffic for tags registered by takeAny, in
	// arrival order. A tag is registered on its first takeAny and stays
	// registered; any-source tags must never be used with directed take
	// on the same rank (enforced in take).
	anyQ  map[int]*msgQueue
	freeQ []*msgQueue
	// qArena block-allocates queue structs: setup traffic touches one
	// queue per (src,tag) pair, and carving them 32 at a time keeps that
	// from dominating the allocation count.
	qArena []msgQueue
	// w is the owning world; a blocked take consults its per-rank dead
	// flags so a wait on a message that can never arrive (its sender has
	// terminally exited without sending it) unwinds instead of deadlocking
	// (see fault.go).
	w *World
	// owner is what the owning rank is doing, as counted in w.idle.
	owner ownerState
}

// ownerState tracks whether a mailbox's owning rank can still send: it is
// running, parked in a receive with nothing to take, or terminally exited.
type ownerState uint8

const (
	ownerRunning ownerState = iota
	ownerParked
	ownerExited
)

func newMailbox(w *World) *mailbox {
	mb := &mailbox{
		pending: make(map[msgKey]*msgQueue),
		anyQ:    make(map[int]*msgQueue),
		w:       w,
	}
	mb.cond = sync.NewCond(&mb.mu)
	return mb
}

// getQueue and putQueue recycle queue structs (and their backing arrays)
// drained by collective receives. Both run under mb.mu.
func (mb *mailbox) getQueue() *msgQueue {
	if k := len(mb.freeQ); k > 0 {
		q := mb.freeQ[k-1]
		mb.freeQ[k-1] = nil
		mb.freeQ = mb.freeQ[:k-1]
		return q
	}
	if len(mb.qArena) == 0 {
		mb.qArena = make([]msgQueue, 32)
	}
	q := &mb.qArena[0]
	mb.qArena = mb.qArena[1:]
	return q
}

func (mb *mailbox) putQueue(q *msgQueue) {
	if len(mb.freeQ) < 64 {
		mb.freeQ = append(mb.freeQ, q)
	}
}

func (mb *mailbox) put(m message) {
	mb.mu.Lock()
	if m.tag < 0 {
		if mb.coll == nil {
			mb.coll = make([]msgQueue, len(mb.w.boxes))
		}
		mb.coll[m.src].push(m)
	} else if q, ok := mb.anyQ[m.tag]; ok {
		q.push(m)
	} else {
		k := msgKey{m.src, m.tag}
		q := mb.pending[k]
		if q == nil {
			q = mb.getQueue()
			mb.pending[k] = q
		}
		q.push(m)
	}
	// The owner may be able to progress now, so it stops counting as idle
	// before anyone else can observe the world as quiescent.
	if mb.owner == ownerParked {
		mb.owner = ownerRunning
		mb.w.idle.Add(-1)
	}
	mb.mu.Unlock()
	mb.cond.Signal()
}

// park blocks the owner until its mailbox may have changed. A parked owner
// counts as idle until a put wakes it. When the last running rank parks, no
// message can ever be sent again; the world is quiescent, and every mailbox
// is woken so waiters can observe that. Runs under mb.mu and returns with
// it held, possibly without sleeping; callers re-check their condition.
func (mb *mailbox) park() {
	if mb.owner == ownerRunning {
		mb.owner = ownerParked
		if w := mb.w; w.idle.Add(1) == int64(len(w.boxes)) {
			mb.mu.Unlock()
			w.wakeAll()
			mb.mu.Lock()
			return
		}
	}
	mb.cond.Wait()
}

// registerAny routes tag to a dedicated arrival FIFO, migrating messages
// that arrived before the first takeAny. The pre-registration backlog is
// drained in ascending source order — a deterministic serialisation of
// arrivals the directed queues cannot order between sources. Runs under
// mb.mu.
func (mb *mailbox) registerAny(tag int) *msgQueue {
	q := mb.getQueue()
	mb.anyQ[tag] = q
	var keys []msgKey
	for k := range mb.pending {
		if k.tag == tag {
			keys = append(keys, k)
		}
	}
	// Insertion sort by source: the backlog spans at most a rank's
	// neighbour set, and sort.Slice's reflection closures would charge
	// two allocations per registration.
	for i := 1; i < len(keys); i++ {
		for j := i; j > 0 && keys[j].src < keys[j-1].src; j-- {
			keys[j], keys[j-1] = keys[j-1], keys[j]
		}
	}
	for _, k := range keys {
		pq := mb.pending[k]
		for !pq.empty() {
			q.push(pq.pop())
		}
		delete(mb.pending, k)
		mb.putQueue(pq)
	}
	return q
}

// takeAny blocks until a message with the given tag is available from any
// source and removes the oldest arrival. Used only for sparse
// communication-plan setup, where receivers know how many peers will
// contact them but not which. Because the sender set is unknown, starvation
// cannot be pinned on one rank, so a takeAny unwinds only once the world
// is quiescent: every rank is parked with nothing to take or has exited,
// and no message can ever arrive. As with take, queued messages win over
// death, so how far a rank gets before dying depends on the program and
// the fault schedule alone, never on how fast its peers ran.
func (mb *mailbox) takeAny(tag int) message {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	q := mb.anyQ[tag]
	if q == nil {
		q = mb.registerAny(tag)
	}
	for {
		if !q.empty() {
			return q.pop()
		}
		if mb.w.idle.Load() == int64(len(mb.w.boxes)) {
			panic(killedPanic{})
		}
		mb.park()
	}
}

// take blocks until a message with the given src and tag is available and
// removes the oldest match (messages between a fixed pair with a fixed tag
// are delivered in order).
//
// Pending messages win over death: a payload the sender put before dying is
// still delivered, so a rank's progress depends only on what its peers
// deterministically sent, never on wall-clock racing against the poison
// flag. Only when no message is queued AND the sender has terminally
// exited — it can never send again — does the wait unwind with
// killedPanic.
func (mb *mailbox) take(src, tag int) message {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	if tag < 0 {
		for {
			if mb.coll != nil {
				if m, ok := mb.coll[src].popTag(tag); ok {
					return m
				}
			}
			if mb.w.rankDead[src].Load() {
				panic(killedPanic{})
			}
			mb.park()
		}
	}
	k := msgKey{src, tag}
	for {
		if q := mb.pending[k]; q != nil && !q.empty() {
			return q.pop()
		}
		if mb.w.rankDead[src].Load() {
			panic(killedPanic{})
		}
		// About to block: a tag registered for any-source receives will
		// never surface here — fail loudly instead of deadlocking.
		if _, bad := mb.anyQ[tag]; bad {
			panic(fmt.Sprintf("mp: directed receive on any-source tag %d", tag))
		}
		mb.park()
	}
}

// World owns the ranks, clocks and fabric of one SPMD job.
type World struct {
	topo   Topology
	fabric *netmodel.Fabric
	rater  vclock.ComputeRater
	clocks []*vclock.Clock
	boxes  []*mailbox
	// pool recycles f64 message payloads (see pool.go). It is held by
	// pointer so Grow can transfer ownership of the warm free lists to the
	// grown world along with the mailboxes.
	pool *f64Pool

	// obsRun/recs are the attached observability sink and its per-rank
	// recorders (nil when the world is unobserved; see Observe).
	obsRun *obs.Run
	recs   []*obs.Recorder

	// shrunk marks a world consumed by Shrink or Grow; it must not Run
	// again (Shrink revokes its mailboxes, Grow transplants them).
	shrunk bool

	// Fault-injection state (see fault.go). killAt and degrades are fixed
	// before Run; down/failure are the per-World kill switch tripped when a
	// scheduled crash is reached. rankDead[i] is set once rank i's
	// goroutine has terminally exited (fault, error or completion) and can
	// never send again; blocked receives from it unwind instead of waiting.
	killAt   []float64
	degrades []degradeWindow
	down     atomic.Bool
	failMu   sync.Mutex
	failure  Failure
	rankDead []atomic.Bool
	// idle counts the ranks whose mailbox owner is parked or exited (see
	// mailbox.park); it equals Size only when no rank can send again.
	idle atomic.Int64
}

// NewWorld builds a world for the given topology over the given fabric.
// Every rank gets a virtual clock driven by rater (the platform's per-core
// compute model).
func NewWorld(topo Topology, fabric *netmodel.Fabric, rater vclock.ComputeRater) (*World, error) {
	if topo.NRanks() == 0 {
		return nil, fmt.Errorf("mp: world needs a topology; use BlockTopology")
	}
	if fabric == nil {
		return nil, fmt.Errorf("mp: nil fabric")
	}
	if rater == nil {
		return nil, fmt.Errorf("mp: nil compute rater")
	}
	p := topo.NRanks()
	w := &World{
		topo:     topo,
		fabric:   fabric,
		rater:    rater,
		clocks:   make([]*vclock.Clock, p),
		boxes:    make([]*mailbox, p),
		pool:     &f64Pool{},
		rankDead: make([]atomic.Bool, p),
	}
	for i := 0; i < p; i++ {
		w.clocks[i] = vclock.New(rater)
		w.boxes[i] = newMailbox(w)
	}
	return w, nil
}

// Size returns the number of ranks.
func (w *World) Size() int { return w.topo.NRanks() }

// Topology returns the world's rank/node/group layout.
func (w *World) Topology() Topology { return w.topo }

// Clocks returns the per-rank virtual clocks (valid after Run for reports).
func (w *World) Clocks() []*vclock.Clock { return w.clocks }

// Observe attaches an observability sink to the world: every rank gets an
// event recorder bound to its virtual clock, phase transitions are mirrored
// into the journal, and the payload pool starts counting its traffic. Must
// be called before Run; a nil run leaves the world unobserved (the default,
// which costs nothing on the message hot paths).
func (w *World) Observe(run *obs.Run) {
	if run == nil {
		return
	}
	w.obsRun = run
	w.pool.counting = true
	w.recs = make([]*obs.Recorder, len(w.clocks))
	for i, clk := range w.clocks {
		rec := run.NewRecorder(i, clk)
		w.recs[i] = rec
		clk.SetPhaseListener(func(t float64, _, to vclock.Phase) {
			rec.Phase(t, to.String())
		})
	}
}

// FlushObs emits the world-level end-of-run observations (payload-pool
// traffic) to the run's global recorder, stamped at the world's final
// virtual time. Call once after Run has returned; a no-op when the world is
// unobserved.
func (w *World) FlushObs() {
	if w.obsRun == nil {
		return
	}
	gets, puts := w.pool.gets.Load(), w.pool.puts.Load()
	if gets+puts > 0 {
		w.obsRun.Global().PoolStats(w.MaxVirtualTime(), gets, puts)
	}
}

// RankError wraps an error raised by one rank of an SPMD body.
type RankError struct {
	Rank int
	Err  error
}

func (e *RankError) Error() string { return fmt.Sprintf("rank %d: %v", e.Rank, e.Err) }

// Unwrap returns the underlying rank error.
func (e *RankError) Unwrap() error { return e.Err }

// Run executes body on every rank concurrently and returns the first error
// (by rank order) if any rank fails or panics. Run may be called once per
// World.
func (w *World) Run(body func(r *Rank) error) error {
	if w.shrunk {
		return fmt.Errorf("mp: world was consumed by Shrink or Grow; run the re-formed world instead")
	}
	p := w.Size()
	errs := make([]error, p)
	var wg sync.WaitGroup
	wg.Add(p)
	for i := 0; i < p; i++ {
		rank := &Rank{world: w, id: i, clk: w.clocks[i]}
		if w.recs != nil {
			rank.rec = w.recs[i]
		}
		go func(rk *Rank) {
			defer wg.Done()
			// Runs after the recover below: whatever way the rank exits,
			// it can never send again, so waiters on its messages must be
			// woken to observe the death instead of sleeping forever.
			defer w.markDead(rk.id)
			defer func() {
				if rec := recover(); rec != nil {
					if _, dead := rec.(killedPanic); dead {
						if f, down := w.Failure(); down {
							errs[rk.id] = fmt.Errorf("node %d failed at virtual t=%.3fs: %w",
								f.Node, f.At, ErrRankDead)
						} else {
							errs[rk.id] = fmt.Errorf("peer rank exited before sending: %w", ErrRankDead)
						}
						return
					}
					errs[rk.id] = fmt.Errorf("panic: %v", rec)
				}
			}()
			errs[rk.id] = body(rk)
		}(rank)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return &RankError{Rank: i, Err: err}
		}
	}
	return nil
}

// Rank is one SPMD process: the handle through which application code sends,
// receives and charges compute time.
type Rank struct {
	world *World
	id    int
	clk   *vclock.Clock
	// rec is the rank's event recorder (nil unless the world is observed;
	// all its methods are nil-safe no-ops).
	rec *obs.Recorder
	// collSeq disambiguates successive collectives; all ranks execute the
	// same collective sequence, so equal sequence numbers match up.
	collSeq int
}

// ID returns the rank number in [0, Size).
func (r *Rank) ID() int { return r.id }

// Size returns the number of ranks in the world.
func (r *Rank) Size() int { return r.world.Size() }

// Clock returns the rank's virtual clock.
func (r *Rank) Clock() *vclock.Clock { return r.clk }

// Topology returns the world's layout.
func (r *Rank) Topology() Topology { return r.world.topo }

// Wtime returns the rank's current virtual time (the MPI_Wtime analogue).
func (r *Rank) Wtime() float64 { return r.clk.Now() }

// Obs returns the rank's event recorder, nil when the world is unobserved.
// Application code passes it to instrumented kernels; every method on the
// nil recorder is a free no-op.
func (r *Rank) Obs() *obs.Recorder { return r.rec }

// noteRecv advances the receiver's clock to the message's arrival time and,
// when observed, records the message's virtual mailbox-residency interval
// (from its arrival to the moment this rank consumed it).
func (r *Rank) noteRecv(m *message) {
	r.clk.AdvanceTo(m.arriveAt)
	if r.rec != nil {
		r.rec.QueueInterval(m.arriveAt, r.clk.Now())
	}
}

// ChargeCompute records local floating-point work on this rank.
func (r *Rank) ChargeCompute(flops, bytes float64) { r.clk.ChargeCompute(flops, bytes) }

// msgHeaderBytes approximates per-message protocol overhead.
const msgHeaderBytes = 64

// chargeSend advances the sender clock for a payload of n bytes to dst and
// returns the virtual arrival time at dst.
func (r *Rank) chargeSend(dst, payloadBytes int) float64 {
	w := r.world
	t := w.fabric.P2P(
		payloadBytes+msgHeaderBytes,
		w.topo.SameNode(r.id, dst),
		w.topo.SameGroup(r.id, dst),
		w.topo.NICShare(r.id),
	)
	t *= r.commFactor()
	start := r.clk.Now()
	r.clk.ChargeComm(t, payloadBytes)
	r.rec.CountMsg(payloadBytes)
	return start + t
}

// SendF64 sends a copy of data to rank dst with the given tag (tag >= 0 is
// reserved for applications; collectives use negative tags internally).
func (r *Rank) SendF64(dst, tag int, data []float64) {
	r.sendF64(dst, tag, data)
}

func (r *Rank) sendF64(dst, tag int, data []float64) {
	if dst < 0 || dst >= r.Size() {
		panic(fmt.Sprintf("mp: send to invalid rank %d", dst))
	}
	r.checkFault()
	var cp []float64
	if len(data) > 0 {
		cp = r.world.pool.get(len(data))
		copy(cp, data)
	}
	at := r.chargeSend(dst, 8*len(data))
	r.world.boxes[dst].put(message{src: r.id, tag: tag, f64: cp, arriveAt: at})
}

// SendF64Gather packs x[idx[0]], x[idx[1]], … into a pooled buffer and
// sends it to rank dst — the importer's pack-and-send step without the
// per-call staging allocation. The wire size and virtual charges are
// identical to packing into a scratch slice and calling SendF64.
func (r *Rank) SendF64Gather(dst, tag int, x []float64, idx []int) {
	if dst < 0 || dst >= r.Size() {
		panic(fmt.Sprintf("mp: send to invalid rank %d", dst))
	}
	r.checkFault()
	var cp []float64
	if len(idx) > 0 {
		cp = r.world.pool.get(len(idx))
		for j, l := range idx {
			cp[j] = x[l]
		}
	}
	at := r.chargeSend(dst, 8*len(idx))
	r.world.boxes[dst].put(message{src: r.id, tag: tag, f64: cp, arriveAt: at})
}

// RecvF64 blocks until a float64 message with the given source and tag
// arrives, advances this rank's clock to the arrival time, and returns the
// payload. Ownership of the returned slice transfers to the caller; use
// RecvF64Into or the scatter variants on hot paths so the buffer returns
// to the world's pool instead.
func (r *Rank) RecvF64(src, tag int) []float64 {
	r.checkFault()
	m := r.world.boxes[r.id].take(src, tag)
	r.noteRecv(&m)
	r.checkFault()
	return m.f64
}

// RecvF64Into receives like RecvF64 but copies the payload into dst and
// recycles the transport buffer, keeping the steady state allocation-free.
// dst must have room for the payload; the payload length is returned.
func (r *Rank) RecvF64Into(src, tag int, dst []float64) int {
	r.checkFault()
	m := r.world.boxes[r.id].take(src, tag)
	r.noteRecv(&m)
	r.checkFault()
	if len(dst) < len(m.f64) {
		panic(fmt.Sprintf("mp: RecvF64Into buffer len %d < payload %d", len(dst), len(m.f64)))
	}
	n := copy(dst, m.f64)
	r.world.pool.put(m.f64)
	return n
}

// RecvF64Scatter receives like RecvF64 but scatters payload element j into
// x[pos[j]] and recycles the transport buffer — the importer's
// receive-and-unpack step without surfacing the wire buffer. The payload
// must have exactly len(pos) elements.
func (r *Rank) RecvF64Scatter(src, tag int, x []float64, pos []int) {
	r.checkFault()
	m := r.world.boxes[r.id].take(src, tag)
	r.noteRecv(&m)
	r.checkFault()
	if len(m.f64) != len(pos) {
		panic(fmt.Sprintf("mp: RecvF64Scatter payload %d != positions %d", len(m.f64), len(pos)))
	}
	for j, l := range pos {
		x[l] = m.f64[j]
	}
	r.world.pool.put(m.f64)
}

// RecvF64AddScatter is RecvF64Scatter with accumulation: x[pos[j]] +=
// payload[j], the exporter's sum-into-owner step.
func (r *Rank) RecvF64AddScatter(src, tag int, x []float64, pos []int) {
	r.checkFault()
	m := r.world.boxes[r.id].take(src, tag)
	r.noteRecv(&m)
	r.checkFault()
	if len(m.f64) != len(pos) {
		panic(fmt.Sprintf("mp: RecvF64AddScatter payload %d != positions %d", len(m.f64), len(pos)))
	}
	for j, l := range pos {
		x[l] += m.f64[j]
	}
	r.world.pool.put(m.f64)
}

// SendInts sends a copy of an int slice to rank dst.
func (r *Rank) SendInts(dst, tag int, data []int) {
	if dst < 0 || dst >= r.Size() {
		panic(fmt.Sprintf("mp: send to invalid rank %d", dst))
	}
	r.checkFault()
	cp := make([]int, len(data))
	copy(cp, data)
	at := r.chargeSend(dst, 8*len(data))
	r.world.boxes[dst].put(message{src: r.id, tag: tag, ints: cp, arriveAt: at})
}

// RecvInts blocks for an int message with the given source and tag.
func (r *Rank) RecvInts(src, tag int) []int {
	r.checkFault()
	m := r.world.boxes[r.id].take(src, tag)
	r.noteRecv(&m)
	r.checkFault()
	return m.ints
}

// SendBytes sends a copy of an opaque byte payload to rank dst — the
// transport of serialised checkpoint blobs between buddy ranks. The
// transfer is charged through the fabric like any other message, so
// diskless checkpoint protection shows up in virtual time.
func (r *Rank) SendBytes(dst, tag int, data []byte) {
	if dst < 0 || dst >= r.Size() {
		panic(fmt.Sprintf("mp: send to invalid rank %d", dst))
	}
	r.checkFault()
	cp := make([]byte, len(data))
	copy(cp, data)
	at := r.chargeSend(dst, len(data))
	r.world.boxes[dst].put(message{src: r.id, tag: tag, bytes: cp, arriveAt: at})
}

// RecvBytes blocks for a byte message with the given source and tag.
func (r *Rank) RecvBytes(src, tag int) []byte {
	r.checkFault()
	m := r.world.boxes[r.id].take(src, tag)
	r.noteRecv(&m)
	r.checkFault()
	return m.bytes
}

// RecvAnyInts blocks for an int message with the given tag from any source
// and returns the source rank and payload. It is not a fault point: the
// clock between successive any-source receives depends on arrival order,
// so a scheduled crash fires at the rank's next send or directed receive,
// whose clock covers every arrival received.
func (r *Rank) RecvAnyInts(tag int) (src int, data []int) {
	m := r.world.boxes[r.id].takeAny(tag)
	r.noteRecv(&m)
	return m.src, m.ints
}
