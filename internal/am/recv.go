package am

import (
	"spam/internal/hw"
	"spam/internal/sim"
	"spam/internal/trace"
)

// emit records one protocol-level trace event for this endpoint when a
// recorder is attached; a disabled run pays a single nil check.
func (ep *Endpoint) emit(k trace.Kind, pkt, arg int64, class string) {
	if rec := ep.node.Eng.Tracer(); rec != nil {
		rec.Emit(int64(ep.node.Eng.Now()), k, ep.node.ID, pkt, arg, class)
	}
}

// Poll services the network once: it drains every packet currently in the
// receive FIFO (invoking handlers as messages complete), applies
// acknowledgements, issues flow-control traffic, and advances pending
// outgoing work. Polling an empty network costs 1.3 µs plus about 1.8 µs
// per received message (paper §2.5).
func (ep *Endpoint) Poll(p *sim.Proc) { ep.poll(p, 0) }

// PollUntil polls once, then keeps polling for as long as each poll is idle
// (see idle) and the clock is below until, and returns the number of polls
// made. It is exactly a loop of Poll calls that stops after the first poll
// that does any work or ends at or past until, so a wait loop
//
//	for !done() { ep.Poll(p) }
//
// may become
//
//	for !done() { ep.PollUntil(p, until) }
//
// whenever its body does nothing else after an idle poll while the clock is
// below until: done cannot change without a handler running, and until is
// the earliest time the caller has work of its own (sim.Forever for none).
// The idle polls run as one AdvanceWhile, so the process is not resumed
// between them, while every counter, metric, trace event and event key is
// what the Poll loop would have produced.
func (ep *Endpoint) PollUntil(p *sim.Proc, until sim.Time) int { return ep.poll(p, until) }

func (ep *Endpoint) poll(p *sim.Proc, until sim.Time) int {
	if ep.node.Killed() {
		// Fail-stopped node: the program never runs another instruction.
		// Detach parks the process forever and reclassifies it as a daemon
		// so the rest of the simulation can finish without it.
		p.Detach("fail-stopped (killed)")
	}
	ep.pollStart()
	polls := ep.pollEmpty(p, until)
	ad := ep.node.Adapter
	got := 0
	for {
		pkt := ad.RecvPeek()
		if pkt == nil {
			break
		}
		ad.RecvPop()
		got++
		ep.chargePop(p)
		if !ep.processPacket(p, pkt) {
			ep.node.Pool.Put(pkt)
		}
	}
	if got == 0 {
		ep.Stats.EmptyPolls++
		ep.keepAlive(p)
	}
	ep.drainAll(p)
	ep.explicitAcks(p)
	ep.pollEnd(got)
	return polls
}

// pollStart is the accounting at the head of every poll.
func (ep *Endpoint) pollStart() {
	ep.Stats.Polls++
	ep.emit(trace.EvPollStart, 0, 0, "")
	if m := ep.sys.met; m != nil {
		m.polls.Inc()
		m.recvFIFO.Observe(int64(ep.node.Adapter.RecvLen()))
	}
}

// pollEnd is the accounting at the tail of every poll that drained got
// packets.
func (ep *Endpoint) pollEnd(got int) {
	if m := ep.sys.met; m != nil {
		m.pollBatch.Observe(int64(got))
		if got == 0 {
			m.emptyPolls.Inc()
		}
	}
	ep.emit(trace.EvPollEnd, 0, int64(got), "")
}

// pollEmpty charges the empty-poll cost of the poll just started and, when
// until lies ahead, the whole run of idle polls after it (see idleTick). It
// returns the number of polls charged; the caller finishes the last one.
//
// idleUntil and idleTicks are endpoint state shared by every process polling
// the endpoint. Should a second process start an idle run while one is
// parked in its own (a post-Drain service process beside a program still
// polling), idleClash stops every idle run until both have left: a run that
// ends early is always exact, since its caller just polls again. A single
// poll touches none of this state, so it needs no such guard.
func (ep *Endpoint) pollEmpty(p *sim.Proc, until sim.Time) int {
	if until <= ep.node.Eng.Now()+costPollEmpty {
		// The deadline falls before this poll ends, so no idle poll can
		// follow it: a plain Advance charges it, touching no idle state.
		ep.node.ComputeUnscaled(p, costPollEmpty)
		return 1
	}
	if ep.idleParked > 0 {
		ep.idleClash = true
	}
	ep.idleParked++
	ep.idleUntil = until
	start := ep.idleTicks
	p.AdvanceWhile(costPollEmpty, ep.idleTickFn)
	if ep.idleParked--; ep.idleParked == 0 {
		ep.idleClash = false
	}
	return 1 + int(ep.idleTicks-start)
}

// idleTick runs when a poll's empty-poll cost has elapsed. If that poll is
// idle and the clock is below the deadline, it performs the poll's tail and
// the next poll's head — all an idle poll does — and reports true so the
// process stays parked for the next poll's cost. Otherwise it changes
// nothing and the process resumes to finish the poll itself.
func (ep *Endpoint) idleTick() bool {
	if ep.idleClash || ep.node.Eng.Now() >= ep.idleUntil {
		return false
	}
	idle, streaks := ep.idle()
	if !idle {
		return false
	}
	ep.Stats.EmptyPolls++
	if streaks {
		ep.keepAlive(nil) // streak bookkeeping only: idle ruled out every probe
	}
	ep.pollEnd(0)
	ep.pollStart()
	ep.idleTicks++
	return true
}

// idle reports whether finishing the current poll now would only do
// bookkeeping: nothing has arrived, the node is alive, no FIFO entry awaits
// commit, and toward every live peer nothing is injectable before an ack
// opens the window (see windowStalled), no explicit ack is owed, and no
// keep-alive probe (or death declaration) becomes due with this poll's
// streak bump. drainAll, explicitAcks and keepAlive then charge no time
// and send nothing, and the caller polls again at once. streaks reports
// whether keepAlive still has bookkeeping to do: a streak to bump, or a
// stale streak or probe round to clear.
func (ep *Endpoint) idle() (idle, streaks bool) {
	if ep.node.Adapter.RecvLen() != 0 || ep.pendingCommit != 0 || ep.node.Killed() {
		return false, false
	}
	now := ep.node.Eng.Now()
	for _, ps := range ep.peers {
		if ps.deathErr != nil {
			continue
		}
		if ps.forceAck || ep.ackOwed(ps) {
			return false, false
		}
		req, rep := &ps.tx[chReq], &ps.tx[chRep]
		if req.q.Len()|req.retx.Len()|rep.q.Len()|rep.retx.Len() != 0 &&
			!(req.windowStalled() && rep.windowStalled()) {
			return false, false
		}
		if req.saved.Len()|rep.saved.Len() != 0 {
			if ep.probeDue(ps, ps.emptyStreak+1, now) {
				return false, false
			}
			streaks = true
		} else if ps.emptyStreak|ps.probeRounds != 0 || ps.nextProbeAt != 0 {
			streaks = true
		}
	}
	return true, streaks
}

// chargePop accounts the lazy receive-FIFO pop: entries are flushed and
// popped in batches to amortize the MicroChannel access (paper §2.1).
func (ep *Endpoint) chargePop(p *sim.Proc) {
	ep.popCount++
	if !ep.sys.Opt.LazyPop || ep.popCount%lazyPopBatch == 0 {
		p.Advance(ep.node.Adapter.Params().MCAccess)
	}
}

// processPacket consumes one received packet and reports whether it
// retained the packet record (only raw-mode packets are kept, queued for
// RawRecv); the caller returns unretained packets to the pool.
func (ep *Endpoint) processPacket(p *sim.Proc, pkt *hw.Packet) bool {
	m := &pkt.Hdr
	src := pkt.Src
	ep.Stats.PacketsReceived++
	// Wire checksum first: a corrupted packet must never reach a handler,
	// advance an ack horizon, or touch reassembly state. Discarding it here
	// turns corruption into loss, which the NACK/keep-alive machinery
	// already recovers (sequenced packets via go-back-N on the next gap,
	// control packets via probe/refresh).
	if m.Csum != m.WireChecksum(pkt.Data) {
		ep.Stats.CorruptDropped++
		if met := ep.sys.met; met != nil {
			met.corruptDropped.Inc()
		}
		ep.node.ComputeUnscaled(p, costPerMsg) // the host still examined it
		return false
	}
	ps := ep.peer(src)
	if ps.deathErr != nil {
		// Declared dead: late traffic (an asymmetric partition, not a true
		// fail-stop) is ignored — the declaration is sticky.
		ep.node.ComputeUnscaled(p, costPerMsg)
		return false
	}
	ps.emptyStreak = 0

	if m.Kind == kRaw {
		ep.node.ComputeUnscaled(p, costRawRecv)
		ep.rawQ.Push(pkt)
		return true
	}
	ep.node.ComputeUnscaled(p, costPerMsg)

	if m.HasAck {
		ep.applyAck(p, src, m.AckReq, m.AckRep)
	}
	switch m.Kind {
	case kAck:
		// Cumulative ack already applied above.
	case kNack:
		ep.handleNack(src, m)
	case kProbe:
		ps.forceAck = true
	case kRequest, kReply, kGetReq, kChunk:
		ep.handleSequenced(p, src, ps, m, pkt)
	}
	return false
}

// applyAck advances both channels' acked horizons, prunes the retransmit
// store, and fires bulk-op completions in injection order.
func (ep *Endpoint) applyAck(p *sim.Proc, src int, ackReq, ackRep uint64) {
	ps := ep.peer(src)
	for ch, ack := range [2]uint64{ackReq, ackRep} {
		tc := &ps.tx[ch]
		if ack <= tc.ackedSeq {
			continue
		}
		tc.ackedSeq = ack
		// Cumulative-ack progress: the peer is alive, so any probe-round
		// ladder restarts from scratch.
		ps.probeRounds = 0
		ps.nextProbeAt = 0
		if tc.rttValid && ack > tc.rttSeq {
			// The timed flight completed without a covering retransmission
			// (Karn's rule kept the sample valid): feed the estimator.
			tc.rttValid = false
			ep.sampleRTT(ps, ep.node.Eng.Now()-tc.rttAt)
		}
		for tc.saved.Len() > 0 {
			sp := tc.saved.Peek()
			if sp.m.Seq+sp.m.Span() > ack {
				break
			}
			tc.saved.Pop()
		}
		if tc.hasNackRetx && tc.ackedSeq > tc.lastNackRetx {
			tc.hasNackRetx = false
		}
		for tc.waitAck.Len() > 0 {
			op := *tc.waitAck.Peek()
			if !op.injected || tc.ackedSeq < op.lastSeq+op.span {
				break
			}
			tc.waitAck.Pop()
			op.acked = true
			// Only evict our own tracked op: get-data ops we serve for a
			// peer carry the INITIATOR's id, which may coincide with one
			// of our own in-flight ids.
			if cur, ok := ep.ops[op.id]; ok && cur == op {
				delete(ep.ops, op.id)
			}
			if op.onComplete != nil {
				ep.inHandler = true
				op.onComplete(p, ep)
				ep.inHandler = false
			}
			// Recycle the record; a blocked Store waiter notices either
			// acked (before reuse) or the bumped generation (after).
			ep.putBulkOp(op)
		}
	}
	// A probe was outstanding: if this ack leaves saved packets uncovered,
	// the receiver never saw them — retransmit (keep-alive recovery, §2.2).
	if ps.probed {
		ps.probed = false
		for ch := 0; ch < 2; ch++ {
			tc := &ps.tx[ch]
			if tc.saved.Len() > 0 {
				tc.retx.Clear()
				for i := 0; i < tc.saved.Len(); i++ {
					tc.retx.Push(*tc.saved.At(i))
				}
			}
		}
	}
}

// handleNack queues go-back-N retransmission of everything from the
// receiver's expected sequence onward.
func (ep *Endpoint) handleNack(src int, m *msg) {
	tc := &ep.peer(src).tx[m.Ch]
	if tc.hasNackRetx && tc.lastNackRetx == m.Seq && tc.retx.Len() > 0 {
		return // already retransmitting for this loss event
	}
	tc.retx.Clear()
	for i := 0; i < tc.saved.Len(); i++ {
		sp := tc.saved.At(i)
		if sp.m.Seq >= m.Seq {
			tc.retx.Push(*sp)
		}
	}
	if tc.retx.Len() > 0 {
		tc.hasNackRetx = true
		tc.lastNackRetx = m.Seq
	}
}

func (ep *Endpoint) handleSequenced(p *sim.Proc, src int, ps *peerState, m *msg, pkt *hw.Packet) {
	rc := &ps.rx[m.Ch]
	switch {
	case m.Seq > rc.expect:
		// A gap: something was dropped. NACK once per loss event, with a
		// periodic refresh in case the nack or the retransmission burst was
		// itself lost.
		rc.badSince++
		if rc.lastNacked != rc.expect || rc.badSince >= nackRefresh {
			rc.lastNacked = rc.expect
			rc.badSince = 0
			ep.sendCtrl(p, src, kNack, rc.expect, m.Ch)
		}
	case m.Seq < rc.expect:
		// Duplicate from a retransmission; re-ack so the sender can slide.
		ep.Stats.Duplicates++
		ps.forceAck = true
	default:
		rc.lastNacked = ^uint64(0)
		rc.badSince = 0
		if m.Kind == kChunk {
			ep.acceptChunkPacket(p, src, ps, rc, m, pkt)
		} else {
			rc.expect++
			rc.unackedPkts++
			ep.deliverShort(p, src, m, pkt.TraceID)
		}
	}
}

// acceptChunkPacket reassembles the in-order chunk at rc.expect; packets
// within a chunk share its sequence number and are ordered by offset
// (paper §2.2). Reassembly state lives inline in the rxChan with a reused
// arrival bitmap — chunks are strictly in-order, so one suffices.
func (ep *Endpoint) acceptChunkPacket(p *sim.Proc, src int, ps *peerState, rc *rxChan, m *msg, pkt *hw.Packet) {
	if !rc.chunkActive || rc.chunkSeq != m.Seq {
		rc.startChunk(m.Seq, m.ChunkPkts)
	}
	if rc.chunkGot[m.PktIdx] {
		ep.Stats.Duplicates++
		return
	}
	rc.chunkGot[m.PktIdx] = true
	rc.chunkCount++
	if len(pkt.Data) > 0 {
		dst := ep.node.Mem.Slice(m.DAddr, len(pkt.Data))
		copy(dst, pkt.Data)
		ep.node.Memcpy(p, len(pkt.Data))
	}
	if !ep.sys.Opt.AckPerChunk {
		// Ablation: the naive protocol acknowledges every data packet as
		// it arrives instead of once per chunk.
		ep.sendCtrl(p, src, kAck, 0, m.Ch)
	}
	if rc.chunkCount < rc.chunkNeed {
		return
	}
	// Chunk complete: slide, schedule its (single) acknowledgement.
	need := rc.chunkNeed
	rc.chunkActive = false
	rc.expect += uint64(need)
	rc.unackedPkts += need
	if ep.sys.Opt.AckPerChunk {
		ps.forceAck = true
	}
	if !m.Final {
		return
	}
	// Whole operation arrived.
	base := hw.Addr{Seg: m.DAddr.Seg, Off: m.DAddr.Off - m.BOff}
	switch m.BK {
	case bkStore:
		if HandlerID(m.H) != NoHandler {
			ep.runBulkHandler(p, HandlerID(m.H), Token{Src: src, mayReply: true}, base, m.Total, m.Arg, pkt.TraceID)
		}
	case bkGetData:
		// We initiated this get; data is home.
		if op, ok := ep.ops[m.Op]; ok {
			op.done = true
			delete(ep.ops, m.Op)
			// Recycle; a blocked Get waiter sees done or the bumped gen.
			ep.putBulkOp(op)
		}
		if HandlerID(m.H) != NoHandler {
			ep.runBulkHandler(p, HandlerID(m.H), Token{Src: src, mayReply: false}, base, m.Total, m.Arg, pkt.TraceID)
		}
	}
}

func (ep *Endpoint) deliverShort(p *sim.Proc, src int, m *msg, tid int64) {
	switch m.Kind {
	case kRequest:
		ep.runHandler(p, HandlerID(m.H), Token{Src: src, mayReply: true}, m.Args[:m.Nargs], tid)
	case kReply:
		ep.runHandler(p, HandlerID(m.H), Token{Src: src, mayReply: false}, m.Args[:m.Nargs], tid)
	case kGetReq:
		// Serve the get: stream our memory back on the reply channel. The
		// op id is the initiator's, echoed on the data packets; the op is
		// not tracked in ep.ops (it is not ours).
		ep.node.ComputeUnscaled(p, costGetServe)
		var srcData []byte
		if m.NBytes > 0 {
			srcData = ep.node.Mem.Slice(m.RAddr, m.NBytes)
		}
		op := ep.getBulkOp()
		op.id = m.Op
		op.bk = bkGetData
		op.dst = src
		op.peer = src
		op.ch = chRep
		op.src = srcData
		op.daddr = m.LAddr
		op.total = m.NBytes
		op.h = HandlerID(m.H)
		op.arg = m.Args[0]
		tc := &ep.peer(src).tx[chRep]
		tc.q.Push(txOp{bulk: op})
	}
}

func (ep *Endpoint) runHandler(p *sim.Proc, h HandlerID, tok Token, args []uint32, tid int64) {
	if h == NoHandler {
		return
	}
	fn := ep.handlers[h]
	ep.node.ComputeUnscaled(p, costDispatch)
	ep.emit(trace.EvHandlerStart, tid, int64(h), "")
	wasIn := ep.inHandler
	ep.inHandler = true
	fn(p, ep, tok, args)
	ep.inHandler = wasIn
	ep.emit(trace.EvHandlerEnd, tid, int64(h), "")
}

func (ep *Endpoint) runBulkHandler(p *sim.Proc, h HandlerID, tok Token, addr hw.Addr, n int, arg uint32, tid int64) {
	fn := ep.bulkHandlers[h]
	ep.node.ComputeUnscaled(p, costDispatch)
	ep.emit(trace.EvHandlerStart, tid, int64(h), "bulk")
	wasIn := ep.inHandler
	ep.inHandler = true
	fn(p, ep, tok, addr, n, arg)
	ep.inHandler = wasIn
	ep.emit(trace.EvHandlerEnd, tid, int64(h), "bulk")
}

// explicitAcks emits explicit acknowledgements where piggybacking did not
// happen: after each completed chunk, and whenever a quarter of the window
// of received packets is still unacknowledged (paper §2.2).
// explicitAcks covers the self-channel too: loopback packets carry real
// sequence numbers, and without acks a node's stores to itself pin their
// bulk ops (and under fault injection a dropped loopback packet could
// never be retransmitted).
func (ep *Endpoint) explicitAcks(p *sim.Proc) {
	for id, ps := range ep.peers {
		if ps.deathErr != nil {
			continue
		}
		if ps.forceAck || ep.ackOwed(ps) {
			ep.sendCtrl(p, id, kAck, 0, chReq)
		}
	}
}

// ackOwed reports whether a quarter of either receive window from ps is
// still unacknowledged.
func (ep *Endpoint) ackOwed(ps *peerState) bool {
	return ps.rx[chReq].unackedPkts >= ep.sys.ackReqAt || ps.rx[chRep].unackedPkts >= ep.sys.ackRepAt
}

// probeDue reports whether a keep-alive round toward ps is due once its
// empty-poll streak reaches streak: the streak has met the round's
// backed-off threshold and, past round 0, the round's RTO wait has passed.
func (ep *Endpoint) probeDue(ps *peerState, streak int, now sim.Time) bool {
	r := ep.probeShift(ps)
	return streak >= ep.sys.Opt.keepAlivePolls()<<r && (r == 0 || now >= ps.nextProbeAt)
}

// probeShift is the backoff exponent of ps's next probe round.
func (ep *Endpoint) probeShift(ps *peerState) uint {
	r := ps.probeRounds
	if c := ep.sys.Opt.backoffCap(); r > c {
		r = c
	}
	return uint(r)
}

// keepAlive sends a probe to any peer with long-unacknowledged traffic; the
// probe elicits an explicit ack, and an ack that fails to cover our saved
// packets triggers retransmission (paper §2.2's keep-alive protocol).
//
// Successive probe rounds with no cumulative-ack progress back off
// exponentially: round r waits KeepAlivePolls << min(r, BackoffCap) empty
// polls and, past round 0, at least the RTT-derived RTO (also shifted by
// the round). Round 0 behaves exactly like the paper's fixed-threshold
// probe, so lossless runs are untouched. A peer that stays silent through
// DeathThreshold rounds is declared fail-stopped.
func (ep *Endpoint) keepAlive(p *sim.Proc) {
	o := ep.sys.Opt
	for id, ps := range ep.peers {
		if ps.deathErr != nil {
			continue
		}
		if ps.tx[chReq].saved.Len() == 0 && ps.tx[chRep].saved.Len() == 0 {
			ps.emptyStreak = 0
			ps.probeRounds = 0
			ps.nextProbeAt = 0
			continue
		}
		ps.emptyStreak++
		if !ep.probeDue(ps, ps.emptyStreak, ep.node.Eng.Now()) {
			continue
		}
		if !o.deathDisabled() && ps.probeRounds >= o.deathThreshold() {
			ep.declarePeerDead(p, id, ps)
			continue
		}
		ps.emptyStreak = 0
		ps.probed = true
		if ps.probeRounds > 0 {
			ep.Stats.Backoffs++
			if met := ep.sys.met; met != nil {
				met.backoffs.Inc()
			}
		}
		ps.nextProbeAt = ep.node.Eng.Now() + ep.rto(ps)<<ep.probeShift(ps)
		ps.probeRounds++
		ep.sendCtrl(p, id, kProbe, 0, chReq)
	}
}
