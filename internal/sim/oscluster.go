package sim

import (
	"offloadsim/internal/oscore"
	"offloadsim/internal/syscalls"
	"offloadsim/internal/telemetry"
	"offloadsim/internal/trace"
)

// This file is the engine side of the OS cores (internal/oscore,
// docs/OSCORES.md). Every off-load-capable simulator runs a cluster:
// the paper's single OS core is the K=1 instance (one queue, speed 1,
// every class routed to queue 0, no async slots), and Config.OSCores
// generalizes it to K cores with affinity routing, big/little speeds
// and asynchronous dispatch. offloadOS is the one place an off-load is
// priced on the OS side, for the serial engine (clusterOffload) and the
// parallel engine's barrier (resolveOffloads) alike.
//
// Pricing. A synchronous off-load costs the issuing core the paper's
// round trip — oneWay + wait + exec + oneWay — with exec scaled by the
// serving core's speed factor. An asynchronous (fire-and-forget)
// off-load costs the issuing core only the outbound oneWay: the OS-side
// work overlaps user execution, following Colagrande & Benini's
// observation that offload latency hides when the requester keeps
// running. The overlap is not free — the return descriptor must still
// be reconciled at the core's next OS boundary (or earlier, if the
// per-core return slots fill), and any cycles the core stalls waiting
// for an unlanded return are charged there.

// clusterOffload executes one off-loaded invocation of the serial engine.
func (s *Simulator) clusterOffload(u *userCtx, seg *trace.Segment) {
	async := s.cfg.OSCores.Async && syscalls.SideEffectOnly(seg.Sys)
	if async {
		// Fire-and-forget needs a free return slot; with all slots
		// occupied the core stalls until the earliest outstanding
		// return lands (double buffering at the default budget of 2).
		s.awaitAsyncSlot(u)
	} else {
		// A synchronous off-load is an OS boundary: every outstanding
		// async return reconciles before the round trip begins.
		s.drainAsync(u)
	}

	oneWay := uint64(s.cfg.Migration.OneWay)
	q, start, wait, scaled := s.offloadOS(u.idx, seg, u.clock+oneWay, async)
	if async {
		s.osc.PushAsync(u.idx, start+scaled+oneWay, q)
		u.core.Idle(oneWay)
		u.clock += oneWay
	} else {
		total := oneWay + wait + scaled + oneWay
		u.core.Idle(total)
		u.clock += total
	}
}

// offloadOS prices one off-load on the OS side: it routes the request
// arriving at arrival, runs it on the serving core, books that core's
// reservation queue and emits the trace events on issuing core node's
// ring. It returns the serving core, the execution start, the queue
// wait and the speed-scaled execution cycles; the caller charges the
// issuing core. Telemetry samples are read-only and taken around — never
// inside — the model's own calls, so the simulated outcome is identical
// with tracing on or off.
func (s *Simulator) offloadOS(node int, seg *trace.Segment, arrival uint64, async bool) (q int, start, wait, scaled uint64) {
	cat := syscalls.CategoryOf(seg.Sys)
	q, _ = s.osc.Route(cat, arrival)
	var backlog int
	var missBase uint64
	if s.trc != nil {
		backlog = s.osc.Backlog(q, arrival)
		missBase = s.osMissCount(q)
	}
	execCycles := s.osCores[q].RunSegment(seg)
	scaled = oscore.Scale(execCycles, s.osc.Speed(q))
	start, wait = s.osc.Reserve(q, cat, arrival, scaled)
	if s.trc != nil {
		s.emitClusterOffload(node, seg, arrival, start, wait, scaled, q,
			backlog, s.osMissCount(q)-missBase, async)
	}
	return q, start, wait, scaled
}

// awaitAsyncSlot frees a return slot on user core u, reconciling the
// earliest-completing outstanding off-loads until one is available.
func (s *Simulator) awaitAsyncSlot(u *userCtx) {
	for !s.osc.SlotFree(u.idx) {
		complete, q, ok := s.osc.PopEarliest(u.idx)
		if !ok {
			return
		}
		s.reconcileAsync(u, complete, q)
	}
}

// drainAsync reconciles every outstanding fire-and-forget return of user
// core u in issue order — the synchronous OS-boundary drain.
func (s *Simulator) drainAsync(u *userCtx) {
	if s.osc.PendingCount(u.idx) == 0 {
		return
	}
	for _, ret := range s.osc.TakePending(u.idx) {
		s.reconcileAsync(u, ret.Complete, ret.Core)
	}
}

// reconcileAsync lands one return descriptor on its issuing core,
// stalling the core if the descriptor has not arrived yet. The stall is
// idle-eligible, like any migration wait.
func (s *Simulator) reconcileAsync(u *userCtx, complete uint64, q int) {
	var stall uint64
	if complete > u.clock {
		stall = complete - u.clock
		u.core.Idle(stall)
		u.clock = complete
	}
	s.osc.ObserveReconcile(stall)
	if u.trc != nil {
		u.trc.Emit(u.idx, telemetry.Event{
			Time: u.clock, Kind: telemetry.KindAsyncReturn,
			Sys: -1, Cycles: stall, Value: int64(q),
		})
	}
}

// emitClusterOffload records one off-load: dispatch, enqueue (wait and
// observed backlog), execution on the serving core with its cache
// warm-up cost, and — synchronous only — the return to the issuing core.
// Async returns are emitted by reconcileAsync when they actually land.
// The enqueue/execute pair keeps its wire names: offload_queue/
// offload_execute for the paper's single OS core, oscore_enqueue/
// oscore_execute (execute naming the serving core) for an enabled
// Config.OSCores block.
func (s *Simulator) emitClusterOffload(node int, seg *trace.Segment,
	arrival, start, wait, scaled uint64, q, backlog int, missDelta uint64, async bool) {
	oneWay := uint64(s.cfg.Migration.OneWay)
	dispatch := arrival - oneWay
	sys := int32(seg.Sys)
	queueKind, execKind, execCore := telemetry.KindOffloadQueue, telemetry.KindOffloadExecute, int64(0)
	if s.cfg.OSCores.Enabled {
		queueKind, execKind, execCore = telemetry.KindOSCoreEnqueue, telemetry.KindOSCoreExecute, int64(q)
	}
	s.trc.Emit(node, telemetry.Event{
		Time: dispatch, Kind: telemetry.KindOffloadDispatch, Sys: sys, Cycles: oneWay,
	})
	s.trc.Emit(node, telemetry.Event{
		Time: arrival, Kind: queueKind, Sys: sys, Cycles: wait, Value: int64(backlog),
	})
	s.trc.Emit(node, telemetry.Event{
		Time: start, Kind: execKind, Sys: sys, Cycles: scaled, Value: execCore,
	})
	s.trc.Emit(node, telemetry.Event{
		Time: start, Kind: telemetry.KindCacheWarm, Sys: sys, Value: int64(missDelta),
	})
	if !async {
		total := oneWay + wait + scaled + oneWay
		s.trc.Emit(node, telemetry.Event{
			Time: dispatch + total, Kind: telemetry.KindOffloadReturn, Sys: sys, Cycles: total,
		})
	}
}

// osMissCount is OS core q's cumulative private-cache miss count (L1
// I+D plus its L2): the counter emitClusterOffload differences into
// cache-warm-up events.
func (s *Simulator) osMissCount(q int) uint64 {
	return s.osCores[q].MissCount() + s.sys.L2(s.osNode+q).Stats.Misses.Value()
}

// osSlotsTotal is the hardware-context capacity of the OS side:
// contexts x K, 0 without an OS core.
func (s *Simulator) osSlotsTotal() int {
	if s.osc == nil {
		return 0
	}
	return s.osc.Contexts() * s.osc.K()
}
