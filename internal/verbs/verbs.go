// Package verbs defines the provider-neutral RDMA interface shared by the
// iWARP RNIC and the InfiniBand HCA models, mirroring how the paper uses
// OpenFabrics verbs as "a common user-level interface" for its head-to-head
// multi-connection experiments (Section 5.1).
//
// The semantics follow the queue-pair model both standards share: work
// requests are posted to a QP's send or receive queue; completions arrive in
// completion queues; RDMA Write places data directly into a remote
// registered region (tagged placement) without consuming a receive work
// request; Send consumes one posted Recv (untagged placement); RDMA Read
// pulls from a remote region.
//
// That shared part is implemented once, in Front: the iWARP and IB queue
// pairs embed it and keep only the engine behind it, which is where every
// iWARP-vs-IB difference the paper reports comes from.
package verbs

import (
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Op is a work-request operation code.
type Op int

// Work request operations.
const (
	OpSend Op = iota
	OpRecv
	OpWrite // RDMA Write
	OpRead  // RDMA Read
)

// String returns the conventional verb name.
func (o Op) String() string {
	switch o {
	case OpSend:
		return "SEND"
	case OpRecv:
		return "RECV"
	case OpWrite:
		return "RDMA_WRITE"
	case OpRead:
		return "RDMA_READ"
	}
	return "UNKNOWN"
}

// WR is a work request. Local names the registered region the data comes
// from (or lands in, for OpRecv/OpRead); RemoteKey/RemoteOff address the
// remote region for RDMA operations.
type WR struct {
	ID        uint64
	Op        Op
	Local     *mem.Region
	LocalOff  int
	Len       int
	RemoteKey mem.RKey
	RemoteOff int

	// Cause names the trace event that motivated the posting (an MPI-layer
	// span, a registration, a control-message arrival); the NIC models
	// thread it through their engines so the causal DAG crosses the
	// host/device boundary. RefNone when tracing is off.
	Cause trace.Ref
}

// Completion is a completion-queue entry. Cause is the causal ref of the
// device event that produced the completion (final ACK processing, last
// placed packet), for the layer above to chain from.
type Completion struct {
	WRID  uint64
	Op    Op
	Len   int
	At    sim.Time
	Cause trace.Ref
}

// CQ is a completion queue. Poll models the host busy-polling it: the
// blocked process wakes when an entry arrives and pays the poll-detection
// granularity configured for the NIC.
type CQ struct {
	q          *sim.Queue[Completion]
	pollDetect sim.Time
}

// NewCQ creates a completion queue whose pollers pay detect per reap.
func NewCQ(eng *sim.Engine, name string, detect sim.Time) *CQ {
	return &CQ{q: sim.NewQueue[Completion](eng, name), pollDetect: detect}
}

// Push appends a completion (NIC side).
func (c *CQ) Push(comp Completion) { c.q.Put(comp) }

// Poll blocks p until a completion is available and returns it, charging
// the poll-detection cost.
func (c *CQ) Poll(p *sim.Proc) Completion {
	comp := c.q.Get(p)
	p.Sleep(c.pollDetect)
	return comp
}

// TryPoll returns a completion if one is pending, without blocking.
func (c *CQ) TryPoll() (Completion, bool) { return c.q.TryGet() }

// Len returns the number of pending completions.
func (c *CQ) Len() int { return c.q.Len() }

// Placement reports tagged data landing in a local registered region; the
// polled-buffer synchronization in the paper's user-level RDMA Write tests
// ("we check completion of the RDMA write operations by polling the target
// buffer") consumes these.
type Placement struct {
	Key   mem.RKey
	Off   int
	Len   int
	At    sim.Time
	Cause trace.Ref
}

// QP is one endpoint of a connected queue pair. All posting calls charge
// host-side overhead to the calling process and return once the work
// request is handed to the NIC (not when it completes; completions arrive
// in the CQs).
type QP interface {
	// PostSend posts a Send, RDMA Write or RDMA Read work request.
	PostSend(p *sim.Proc, wr WR)
	// PostRecv posts a receive buffer for untagged (Send) traffic.
	PostRecv(p *sim.Proc, wr WR)
	// SendCQ returns the completion queue for send-side work.
	SendCQ() *CQ
	// RecvCQ returns the completion queue for receive completions.
	RecvCQ() *CQ
	// SetCQs redirects the QP's completions into caller-provided queues
	// (MPI points every QP of a process at one shared CQ). Call it before
	// any traffic flows.
	SetCQs(scq, rcq *CQ)
	// Placements returns the tagged-placement notification queue.
	Placements() *sim.Queue[Placement]
	// SetPlacementLog turns the Placements log on or off. It is on from
	// Connect, so a raw-verbs reader sees every tagged placement since
	// then; a consumer that never reads it (MPI) turns it off before
	// traffic flows, so the log does not hold every placement for the
	// world's lifetime.
	SetPlacementLog(on bool)
	// QPN returns the queue-pair number (unique per NIC).
	QPN() int
}

// NIC is the device-level interface both providers implement.
type NIC interface {
	// Name identifies the device instance.
	Name() string
	// Reg returns the device's memory registration table.
	Reg() *mem.RegTable
	// Mem returns the host memory the device DMAs into.
	Mem() *mem.Memory
}
