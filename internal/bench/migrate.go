package bench

// Proactive preemption recovery: instead of waiting for the spot market to
// reclaim an instance and then reacting (restart or shrink), the supervisor
// acts on the two-minute interruption notice. It drains the job at the
// notice, prices an evacuation of the doomed node's diskless checkpoint
// shards to their buddy nodes, and — when the window covers the copy and a
// replacement can be provisioned — shrinks the dead node out and grows a
// replacement back in (mp.World.Grow), resuming at full width. The
// elasticity driver decides migrate-vs-shrink-vs-restart per event, so the
// policy degrades gracefully to the reactive paths and can never hang.
//
// Correlated storms extend the single-event loop with a recovery ARBITER:
// when several preemption notices land inside one notice window (a
// price-spike reclamation wave), the arbiter coalesces them into ONE
// recovery point — one drain, one evacuation (re-homing shards whose buddy
// node is itself doomed onto surviving refugees), one multi-node shrink,
// one grow — so overlapping events can never double-restore. A second
// notice for a slot already doomed in the same window is a cascade: the
// replacement being provisioned for it is reclaimed mid-flight, and the
// arbiter re-plans by acquiring another. On top sits an elastic
// AUTOSCALER: AcquireMix exhaustion (a capped market) is retried with
// seeded exponential backoff instead of failing the run, and — with
// FaultOptions.Regrow — a recovery point on a previously-degraded world
// also re-provisions the missing width, growing back to the submitted
// size. The fallback ladder stays monotone: a migrate whose provisioning
// ultimately fails downgrades to shrink, never back up.
//
// PolicyShrink runs through the same loop restricted to its shrink rung,
// so a migrate fallback and a shrink-continue recovery share one code path.

import (
	"errors"
	"fmt"

	"heterohpc/internal/core"
	"heterohpc/internal/fault"
	"heterohpc/internal/mp"
	"heterohpc/internal/partition"
	"heterohpc/internal/provision"
	"heterohpc/internal/spot"
	"heterohpc/internal/trace"
)

// MigrateStats itemises what the proactive migrate policy did with each
// fatal event (nil on reports from the other policies).
type MigrateStats struct {
	// Migrations counts completed notice-window migrations (drain,
	// evacuate, shrink dead node out, grow replacement in).
	Migrations int
	// FallbackShrinks and FallbackRestarts count fatal events the
	// elasticity driver routed to the reactive paths: unannounced crashes,
	// windows too short for the evacuation, exhausted capacity, or no
	// survivors at all.
	FallbackShrinks, FallbackRestarts int
	// ReplacedNodes lists the migrated-away nodes in the fault plan's
	// original numbering, in event order.
	ReplacedNodes []int
	// EvacuatedBlobs, CopyBytes and CopyS measure the notice-window buddy
	// evacuation: checkpoint shards copied off doomed nodes, their bytes,
	// and their total priced transfer time.
	EvacuatedBlobs int
	CopyBytes      int64
	CopyS          float64
	// WindowS sums the notice windows (reclaim − drain) of all noticed
	// events, whether or not they migrated.
	WindowS float64
	// RestoreStep is the checkpoint step the last migration resumed from
	// (0 for a cold migration before the first checkpoint).
	RestoreStep int
	// Coalesced counts fatal events the arbiter folded into an earlier
	// event's recovery point (beyond the first of each correlated group);
	// Replans counts cascade re-plans, where the replacement being
	// provisioned for a slot was itself reclaimed inside the same window.
	Coalesced, Replans int
	// ProvisionRetries counts the autoscaler's backoff retries after
	// AcquireMix exhaustion; RegrownNodes counts the deficit nodes it
	// re-grew beyond one-for-one replacements (FaultOptions.Regrow).
	ProvisionRetries int
	RegrownNodes     int
}

// elasticityDecision is the driver's verdict for one fatal event.
type elasticityDecision struct {
	Verb   string // "migrate", "shrink" or "restart"
	Reason string
}

// decideRecovery is the elasticity driver: given the notice window a fatal
// event leaves after the drain, the priced evacuation cost, and what the
// run can still do (shrinking needs surviving nodes, migrating needs
// replacement capacity), it picks the cheapest recovery that cannot hang.
// The ladder is strict: migrate when the window covers the copy and a
// replacement exists, shrink when it does not, restart when not even
// survivors remain.
//
// The window boundary is pinned: the shrink guard is strictly
// copyCostS > windowS, so a window EXACTLY equal to the priced evacuation
// migrates — the last byte lands at the reclaim instant, and the reclaim
// takes memory that has already been copied. Equality therefore favours
// the cheaper verb, and the exact-boundary case is covered by a table
// test.
func decideRecovery(windowS, copyCostS float64, canShrink, canProvision bool) elasticityDecision {
	switch {
	case !canShrink:
		return elasticityDecision{Verb: "restart", Reason: "no survivor node to continue on"}
	case windowS <= 0:
		return elasticityDecision{Verb: "shrink", Reason: "failure carried no usable notice window"}
	case !canProvision:
		return elasticityDecision{Verb: "shrink", Reason: "no replacement capacity (market or spares)"}
	case copyCostS > windowS:
		return elasticityDecision{Verb: "shrink",
			Reason: fmt.Sprintf("notice window %.3fs shorter than the %.3fs evacuation", windowS, copyCostS)}
	default:
		return elasticityDecision{Verb: "migrate",
			Reason: fmt.Sprintf("notice window %.3fs covers the %.3fs evacuation", windowS, copyCostS)}
	}
}

// doomedRanks returns the ranks living on node, ascending.
func doomedRanks(topo mp.Topology, node int) []int {
	var rs []int
	for r, n := range topo.NodeOf {
		if n == node {
			rs = append(rs, r)
		}
	}
	return rs
}

// regrowSetupS prices the software instantiation of a deficit node the
// autoscaler grows beyond a one-for-one replacement: the platform's
// preconditioned image (§VI-D) reduces the whole stack to one launch step
// of the provisioning planner. Replacements inside a notice window pay
// nothing extra — the window itself is the budget — but cold capacity
// joining a degraded world is new machinery and boots the image first.
func regrowSetupS(platform string) float64 {
	st, err := provision.PlatformState(platform)
	if err != nil {
		return 0 // platform outside the paper's porting study: free join
	}
	plan, err := provision.Resolve(provision.DefaultRegistry(), st.WithImage(), provision.AppTargets)
	if err != nil {
		return 0
	}
	return plan.TotalHours * 3600
}

// runElastic is the elastic recovery loop of PolicyMigrate and
// PolicyShrink. Both keep the job running across node losses — agree,
// shrink, redistribute from diskless buddy copies — and differ only in
// their ladder. Migrate acts at the preemption notice (drain, coalesce
// correlated notices, evacuate, provision, grow back to full width) with
// shrink and cold restart as fallbacks. Shrink-continue is the shrink-only
// ladder: it arms the reclaim itself, has no market, emits no decision or
// arbiter events, and takes the shrink rung for every loss, so a total
// loss is an error rather than a restart.
func runElastic(s *superSetup) (*RecoveryReport, *shrinkRunState, error) {
	o := s.o
	tg, p := s.tg, s.tg.Platform
	shrinkOnly := o.Policy == PolicyShrink
	if s.nodes < 2 {
		need := "migrate needs at least 2 nodes for buddy evacuation"
		if shrinkOnly {
			need = "shrink-and-continue needs at least 2 nodes for buddy checkpoints"
		}
		return nil, nil, fmt.Errorf("bench: %s (placement has %d); lower RanksPerNode or raise Ranks", need, s.nodes)
	}
	plan := s.plan
	fatals := plan.Failures()
	degrades := plan.Degradations()
	maxAttempts := o.MaxAttempts
	if maxAttempts == 0 {
		maxAttempts = len(fatals) + 3
	}
	provRetries := o.ProvisionRetries
	if provRetries < 0 {
		provRetries = 0
	}

	mg := &MigrateStats{}
	rep := &RecoveryReport{
		Platform: o.Platform, App: o.App, Policy: o.Policy,
		Ranks: o.Ranks, FinalRanks: o.Ranks,
		Plan: plan, Clean: s.clean, CleanVirtualS: s.cleanS,
		Shrink: &ShrinkStats{},
	}
	var rec trace.Recorder
	rec.Observe(o.Obs)
	gobs := o.Obs.Global()

	var market *spot.Market
	if !shrinkOnly {
		rep.Migrate = mg
		market = s.newReplacementMarket()
	}
	spares := o.SpareNodes
	var replacementPremiumPerHour float64
	// The provisioning backoff stream is distinct from restart's retry
	// backoff (seed+1) and the market (seed+2); it only advances when an
	// acquisition actually exhausts the market.
	pbo := fault.NewBackoff(o.BackoffBaseS, o.BackoffCapS, o.Seed+3)

	app, mem, err := newRankApp(o.App, o.Ranks, o.PerRankN, o.Steps)
	if err != nil {
		return nil, nil, err
	}
	m := app.m
	topo, err := mp.BlockTopology(o.Ranks, s.cpn)
	if err != nil {
		return nil, nil, err
	}
	// protect re-homes the diskless mirror on a generation's topology.
	// Mirroring needs an off-node buddy, so a single-node world runs
	// unmirrored: its store stays empty and a later restore line is cold.
	var ms *mirrorStore
	protect := func(a *rankApp, topo mp.Topology) {
		ms = newMirrorStore(topo)
		if topo.NNodes() >= 2 {
			a.mirror, a.meter = ms, newBuddyMeter(topo.NRanks())
		}
	}
	protect(app, topo)

	// nodeMap translates the plan's original node numbering into the
	// current world's; shrinks compose into it. Plan slots follow ROLES,
	// not instances: when a migration replaces a slot's node, the slot is
	// re-pointed at the replacement, so a later (cascade) event aimed at
	// that slot hits the new instance instead of silently dropping.
	nodeMap := make([]int, s.nodes)
	for i := range nodeMap {
		nodeMap[i] = i
	}
	var world *mp.World // nil: launch via Attempt; else resume the re-formed world
	curRanks := o.Ranks
	state := &shrinkRunState{grid: app.grid, ranks: curRanks, app: app}

	foldGen := func() {
		if app.meter != nil {
			over, nbytes := app.meter.fold()
			rep.Shrink.BuddyOverheadS += over
			rep.Shrink.BuddyBytes += nbytes
		}
		rep.Shrink.AgreeS += maxOf(app.agreeS)
		rep.Shrink.RedistributeS += maxOf(app.redistS)
	}

	// dropNodes takes the doomed nodes' memory and shrinks them out of the
	// failed world w in one re-formation.
	dropNodes := func(w *mp.World, doomed, origSlots []int) (*mp.Shrink, error) {
		for _, d := range doomed {
			ms.loseNode(d)
		}
		sr, err := w.ShrinkNodes(doomed[1:])
		if err != nil {
			return nil, err
		}
		rep.Shrink.Shrinks++
		rep.Shrink.RevokedMsgs += sr.Revoked
		rep.Shrink.DeadNodes = append(rep.Shrink.DeadNodes, origSlots...)
		return sr, nil
	}

	// resumeOn installs the continuation on the re-formed world nw, split
	// over grid: it redistributes the restore line's fragments when a line
	// survives (toOld maps nw's ranks to the failed world's, -1 for
	// joiners, which hold nothing), opens with the agreement collective
	// over the failed world's rank space, and mirrors on nw's topology.
	resumeOn := func(nw *mp.World, grid [3]int, sr *mp.Shrink, toOld, doomed []int, line int) error {
		next := app.regrid(grid, nw.Size())
		state.grid, state.ranks, state.app = grid, nw.Size(), next
		if line >= 1 {
			held, err := heldFromMirror(app.w, ms, toOld, doomed, line)
			if err != nil {
				return err
			}
			next.held, state.lastHeld = held, held
		}
		next.suspect = make([]bool, curRanks)
		for _, d := range sr.DeadRanks {
			next.suspect[d] = true
		}
		protect(next, nw.Topology())
		for on := range nodeMap {
			if nodeMap[on] >= 0 {
				nodeMap[on] = sr.OldToNewNode[nodeMap[on]]
			}
		}
		// The re-formed world is a fresh mp.World: re-attach the observer
		// so the continuation's traffic lands in the same journal.
		nw.Observe(o.Obs)
		world, app, curRanks = nw, next, nw.Size()
		return nil
	}

	// execShrink is the shrink rung: drop the whole doomed set in one
	// multi-node shrink and continue degraded on the survivors. It is
	// shrink-continue's only rung and migrate's reactive fallback.
	execShrink := func(w *mp.World, doomed, origSlots []int, stopAt float64) error {
		sr, err := dropNodes(w, doomed, origSlots)
		if err != nil {
			return err
		}
		// What survives in memory, and which step every survivor can agree
		// to resume from. Resumption must leave at least one step to run,
		// so the line is capped at Steps-1.
		line, lineAtS := ms.line(o.Steps - 1)
		survivors := sr.World.Size()
		rec.Record(stopAt, "shrink", "world shrunk %d -> %d ranks (%d pending message(s) revoked)",
			curRanks, survivors, sr.Revoked)

		// Only the rolled-back span is wasted: survivors keep their work up
		// to the restore line. A cold shrink (no surviving common line)
		// rolls all the way back to the start.
		wasted := stopAt
		if line >= 1 {
			wasted = stopAt - lineAtS
		}
		rep.WastedVirtualS += wasted
		rep.RecoveryCostUSD += tg.Billing.JobCost(wasted, curRanks)

		newGrid, err := partition.BalancedGrid(survivors, m.Nx, m.Ny, m.Nz)
		if err != nil {
			return fmt.Errorf("bench: cannot repartition after shrink: %w", err)
		}
		if shrinkOnly {
			// Shrink-continue always ends on the survivor grid, so its
			// report carries that decomposition's quality.
			rec.Record(stopAt, "repartition", "global mesh %dx%dx%d re-partitioned onto grid %dx%dx%d",
				m.Nx, m.Ny, m.Nz, newGrid[0], newGrid[1], newGrid[2])
			if part, perr := partition.Block(m, newGrid[0], newGrid[1], newGrid[2]); perr == nil {
				if q, qerr := partition.Evaluate(partition.DualGraph{M: m}, part, survivors); qerr == nil {
					rep.Shrink.PartitionImbalance = q.Imbalance
				}
			}
		}
		if line >= 1 {
			rec.Record(stopAt, "restore", "survivors resume from the mirrored checkpoint after step %d (rollback %.3fs)",
				line, wasted)
		} else {
			rec.Record(stopAt, "restore", "no common mirrored step survived; survivors restart the stepping from scratch (cold shrink)")
		}
		rep.Shrink.RestoreStep = max(line, 0)
		if err := resumeOn(sr.World, newGrid, sr, sr.NewToOld, doomed, line); err != nil {
			return err
		}
		if app.mirror == nil {
			rec.Record(stopAt, "unprotected", "single node left; diskless mirroring has no off-node partner")
		}
		rep.Degraded = true
		return nil
	}

	for attempt := 1; attempt <= maxAttempts; attempt++ {
		rep.Attempts = attempt

		// Drop scheduled fatals aimed at nodes that no longer exist.
		for len(fatals) > 0 {
			if ev := fault.Remap(fatals[:1], nodeMap); len(ev) == 0 {
				rec.Record(fatals[0].At, "drop", "scheduled %s targets node %d, already lost; dropping it",
					fatals[0].Kind, fatals[0].Node)
				fatals = fatals[1:]
				continue
			}
			break
		}
		events := fault.Remap(degrades, nodeMap)
		var reclaimAt float64
		proactive := false
		if len(fatals) > 0 {
			armed := fault.Remap(fatals[:1], nodeMap)[0]
			reclaimAt = armed.At
			if armed.Kind == fault.KindPreempt {
				rec.Record(armed.NoticeAt, "notice",
					"spot interruption notice for node %d (reclaim at t=%.1fs)", fatals[0].Node, armed.At)
				if !shrinkOnly && armed.NoticeAt < armed.At {
					// Proactive drain: stop the world at the notice rather
					// than the reclaim, leaving the window for the
					// evacuate/provision/grow sequence. Shrink-continue
					// arms the reclaim itself.
					proactive = true
					armed.At = armed.NoticeAt
				}
			}
			events = append(events, armed)
		}

		var result *core.Report
		var af *core.AttemptFailure
		if world == nil {
			result, af, err = tg.Attempt(core.JobSpec{
				Ranks: curRanks, RanksPerNode: o.RanksPerNode, App: app,
				SkipSteps: o.SkipSteps, MemPerRankGB: mem, Faults: events, Obs: o.Obs,
			})
		} else {
			result, af, err = tg.ResumeAttempt(world, app, o.SkipSteps, events)
		}
		if err != nil {
			return nil, nil, err
		}
		foldGen()
		if app.suspect != nil && app.agreedDead != nil {
			deadList := []int{}
			for r, d := range app.agreedDead {
				if d {
					deadList = append(deadList, r)
				}
			}
			rec.Record(0, "agree", "survivors agreed on dead ranks %v in %.4fs (max over ranks)",
				deadList, maxOf(app.agreeS))
		}
		if af == nil {
			rep.Final = result
			rep.FinalRanks = curRanks
			rep.FinalVirtualS = virtualDuration(result)
			if world != nil {
				rep.MakespanS = world.MaxVirtualTime()
			} else {
				rep.MakespanS = rep.FinalVirtualS
			}
			rep.RecoveryCostUSD += replacementPremiumPerHour * rep.FinalVirtualS / 3600
			rep.Shrink.Survivors = curRanks
			rep.Shrink.Grid = app.grid
			rec.Record(rep.MakespanS, "complete", "attempt %d finished on %d ranks (grid %dx%dx%d)",
				attempt, curRanks, app.grid[0], app.grid[1], app.grid[2])
			rep.Decisions = rec.Decisions()
			return rep, state, nil
		}

		if fault.Classify(af) != fault.ClassNodeLoss {
			rep.Decisions = rec.Decisions()
			return nil, nil, fmt.Errorf("bench: unrecoverable %v failure: %w", fault.Classify(af), af)
		}
		stopAt := af.At
		curTopo := af.World.Topology()
		origNode := -1
		for on, cn := range nodeMap {
			if cn == af.Node {
				origNode = on
			}
		}
		kind := "crash"
		if len(fatals) > 0 && fatals[0].Kind == fault.KindPreempt {
			kind = "preemption"
		}
		if proactive {
			rec.Record(stopAt, "failure", "%s drained node %d at the notice t=%.1fs (attempt %d, reclaim at t=%.1fs)",
				kind, origNode, stopAt, attempt, reclaimAt)
		} else {
			rec.Record(stopAt, "failure", "%s killed node %d at t=%.1fs (attempt %d): %v",
				kind, origNode, stopAt, attempt, fault.Classify(af))
		}
		if len(fatals) > 0 {
			fatals = fatals[1:]
		}

		// ---- Arbiter: coalesce correlated notices into one recovery point.
		//
		// Every further preemption whose notice lands before this group's
		// earliest reclaim belongs to the same storm: its node is folded
		// into the doomed set (one shared drain/evacuate/shrink/grow), and
		// a repeat notice for an already-doomed slot is a cascade — the
		// replacement being provisioned for it is reclaimed mid-flight, so
		// one extra acquisition is burned. Folding stops at the first
		// non-notice event, preserving plan order. Crashes never coalesce:
		// they are unannounced, and pretending to know them at the drain
		// would break causality.
		doomed := []int{af.Node}     // current-world numbering, fold order
		origSlots := []int{origNode} // plan numbering, same order
		replans := 0
		if proactive {
			for len(fatals) > 0 {
				e := fatals[0]
				if e.Kind != fault.KindPreempt || e.NoticeAt >= e.At || e.NoticeAt > reclaimAt {
					break
				}
				cur := -1
				if e.Node >= 0 && e.Node < len(nodeMap) {
					cur = nodeMap[e.Node]
				}
				fatals = fatals[1:]
				if cur < 0 {
					rec.Record(e.NoticeAt, "drop", "storm notice targets node %d, already lost; dropping it", e.Node)
					continue
				}
				already := false
				for _, d := range doomed {
					if d == cur {
						already = true
						break
					}
				}
				if already {
					replans++
					mg.Replans++
					rec.Record(e.NoticeAt, "replan", "second notice for node %d inside the same window: its replacement is reclaimed mid-provisioning; acquiring another",
						e.Node)
					continue
				}
				doomed = append(doomed, cur)
				origSlots = append(origSlots, e.Node)
				mg.Coalesced++
				rec.Record(e.NoticeAt, "coalesce", "notice for node %d lands inside node %d's window; folding into one recovery point",
					e.Node, origSlots[0])
			}
		}

		if shrinkOnly {
			if err := execShrink(af.World, doomed, origSlots, stopAt); err != nil {
				return nil, nil, err
			}
			continue
		}

		// Price the evacuation the window would have to absorb: the doomed
		// ranks' restore-line shards re-mirrored off the doomed set,
		// serialised through each doomed node's NIC. The restore line is
		// taken while the nodes are still alive — that is the whole point
		// of acting at the notice. A shard whose buddy is itself doomed is
		// re-homed on the first surviving rank instead (a refugee copy).
		nodeDoomed := make([]bool, curTopo.NNodes())
		for _, d := range doomed {
			nodeDoomed[d] = true
		}
		refugee := -1
		for r := 0; r < curTopo.NRanks(); r++ {
			if !nodeDoomed[curTopo.NodeOf[r]] {
				refugee = r
				break
			}
		}
		evacDst := func(dr int) int {
			if b := ms.buddy[dr]; b >= 0 && !nodeDoomed[curTopo.NodeOf[b]] {
				return b
			}
			return refugee
		}
		var window, copyCost float64
		line, lineAtS := -1, 0.0
		if proactive {
			window = reclaimAt - stopAt
			mg.WindowS += window
			line, lineAtS = ms.line(o.Steps - 1)
			if line >= 1 {
				for _, d := range doomed {
					for _, dr := range doomedRanks(curTopo, d) {
						if sn, ok := ms.snapAt(dr, line); ok {
							if dst := evacDst(dr); dst >= 0 {
								copyCost += af.World.PriceBytes(dr, dst, len(sn.blob))
							}
						}
					}
				}
			}
		}
		canShrink := curTopo.NNodes() >= len(doomed)+1
		needCore := len(doomed) + replans
		canProvision := market != nil || spares >= needCore
		dec := decideRecovery(window, copyCost, canShrink, canProvision)
		gobs.MigrateDecision(stopAt, dec.Verb, window, copyCost)
		if len(doomed) > 1 || replans > 0 {
			gobs.ArbiterCoalesce(stopAt, dec.Verb, len(doomed), len(doomed)-1, replans)
		}
		detail := dec.Reason
		if market != nil {
			detail = fmt.Sprintf("%s; spot last ticked at $%.3f/h", detail, market.Price())
		}
		rec.Record(stopAt, "migrate-decision", "%s for node %d: %s", dec.Verb, origNode, detail)

		switch dec.Verb {
		case "migrate":
			// Evacuate inside the window: re-mirror the doomed ranks' line
			// shards off the doomed set as priced traffic, so the copies
			// are off-node before the first reclaim.
			evacAt := stopAt
			evacN := 0
			if line >= 1 {
				for _, d := range doomed {
					for _, dr := range doomedRanks(curTopo, d) {
						sn, ok := ms.snapAt(dr, line)
						if !ok {
							continue
						}
						dst := evacDst(dr)
						if dst < 0 {
							continue
						}
						evacAt += af.World.PriceBytes(dr, dst, len(sn.blob))
						if dst == ms.buddy[dr] {
							ms.putBuddy(dr, line, evacAt, sn.blob)
						} else {
							ms.putRefugee(dr, dst, line, evacAt, sn.blob)
						}
						evacN++
						mg.CopyBytes += int64(len(sn.blob))
					}
				}
			}
			mg.EvacuatedBlobs += evacN
			mg.CopyS += copyCost
			rec.Record(stopAt, "drain", "notice window %.1fs: drained in-flight collectives, evacuated %d shard(s) in %.4fs",
				window, evacN, copyCost)

			// Provision inside the same window: one replacement per doomed
			// node, one extra per cascade re-plan, plus — when the
			// autoscaler may regrow — the deficit a previous degradation
			// left. Market exhaustion backs off and retries: the market
			// keeps ticking, so a later round can clear.
			deadGroup := curTopo.GroupOfNode[af.Node]
			deficitRanks := 0
			if o.Regrow && curRanks < o.Ranks {
				deficitRanks = o.Ranks - curRanks
			}
			deficitNodes := (deficitRanks + s.cpn - 1) / s.cpn
			need := needCore + deficitNodes

			acquired := 0
			provReadyAt := evacAt
			switch {
			case market != nil:
				bid := o.SpotBidFraction * p.CostPerNodeHour
				provAttempt := 0
				for acquired < need {
					repl, aerr := market.AcquireMix(need-acquired, bid, 1, 3)
					provAttempt++
					if aerr != nil && !errors.Is(aerr, spot.ErrExhausted) {
						return nil, nil, aerr
					}
					for _, nd := range repl.Nodes {
						if nd.Spot {
							rec.Record(stopAt, "provision", "replacement spot instance at $%.3f/h (bid $%.3f)",
								nd.PricePerHour, bid)
						} else {
							rec.Record(stopAt, "provision", "spot market could not fill the bid; on-demand replacement at $%.2f/h — the paper's forced mix",
								nd.PricePerHour)
						}
						if nd.PricePerHour > p.SpotPerNodeHour {
							replacementPremiumPerHour += nd.PricePerHour - p.SpotPerNodeHour
						}
					}
					acquired += len(repl.Nodes)
					if acquired >= need {
						break
					}
					if provAttempt > provRetries {
						rec.Record(provReadyAt, "provision", "market exhausted after %d acquisition attempt(s): %d of %d instance(s)",
							provAttempt, acquired, need)
						break
					}
					d := pbo.Next()
					provReadyAt += d
					rep.WastedVirtualS += d
					rep.BackoffS += d
					mg.ProvisionRetries++
					gobs.ProvisionRetry(provReadyAt, provAttempt, acquired, need, d)
					rec.Record(provReadyAt, "backoff", "provisioning retry %d after %.1fs: %d of %d instance(s) acquired",
						provAttempt, d, acquired, need)
				}
			default:
				take := need
				if take > spares {
					take = spares
				}
				for i := 0; i < take; i++ {
					spares--
					if i < len(origSlots) {
						rec.Record(stopAt, "provision", "cold spare replaces node %d (%d spare(s) left)",
							origSlots[i], spares)
					} else {
						rec.Record(stopAt, "provision", "cold spare grows the degraded world (%d spare(s) left)",
							spares)
					}
				}
				acquired = take
			}

			// Cascade-burned acquisitions come off the top; the remainder
			// replaces doomed slots in fold order, then regrows deficit
			// width. Nothing usable left means the migrate failed —
			// downgrade monotonically to shrink, never retry upward.
			usable := acquired - replans
			if usable < 0 {
				usable = 0
			}
			replaceN := len(doomed)
			if usable < replaceN {
				replaceN = usable
			}
			regrowN := usable - replaceN
			if regrowN > deficitNodes {
				regrowN = deficitNodes
			}
			if replaceN == 0 {
				mg.FallbackShrinks++
				gobs.MigrateDecision(provReadyAt, "shrink", window, copyCost)
				rec.Record(provReadyAt, "migrate-decision", "shrink for node %d: replacement provisioning failed; falling back",
					origNode)
				if err := execShrink(af.World, doomed, origSlots, stopAt); err != nil {
					return nil, nil, err
				}
				continue
			}

			// The reclaims take the doomed nodes' memory; then re-form the
			// world ONCE around the survivors plus every acquired node —
			// one shrink, one grow per recovery point, so overlapping
			// events cannot double-restore.
			sr, err := dropNodes(af.World, doomed, origSlots)
			if err != nil {
				return nil, nil, err
			}
			survivors := sr.World.Size()

			ranksPer := make([]int, 0, replaceN+regrowN)
			groupsOf := make([]int, 0, replaceN+regrowN)
			for i := 0; i < replaceN; i++ {
				ranksPer = append(ranksPer, len(doomedRanks(curTopo, doomed[i])))
				groupsOf = append(groupsOf, curTopo.GroupOfNode[doomed[i]])
			}
			remaining := deficitRanks
			for i := 0; i < regrowN; i++ {
				take := s.cpn
				if take > remaining {
					take = remaining
				}
				ranksPer = append(ranksPer, take)
				groupsOf = append(groupsOf, deadGroup)
				remaining -= take
			}
			startAt := provReadyAt
			if regrowN > 0 {
				setupS := regrowSetupS(o.Platform)
				startAt += setupS
				mg.RegrownNodes += regrowN
				rec.Record(startAt, "provision", "%d deficit node(s) instantiate the preconditioned image in %.0fs and join the re-grow",
					regrowN, setupS)
			}
			gw, err := sr.World.Grow(ranksPer, groupsOf, startAt)
			if err != nil {
				return nil, nil, err
			}
			mg.Migrations++
			mg.ReplacedNodes = append(mg.ReplacedNodes, origSlots[:replaceN]...)
			gobs.WorldGrow(startAt, survivors, gw.World.Size(), gw.NewNodes[0])
			rec.Record(startAt, "world-grow", "world grew %d -> %d ranks: replacement joins as node %d at t=%.1fs",
				survivors, gw.World.Size(), gw.NewNodes[0], startAt)

			// Only the span after the restore line is recomputed; acting at
			// the notice (instead of the reclaim) is what keeps it short.
			wasted := stopAt
			if line >= 1 {
				wasted = stopAt - lineAtS
			}
			rep.WastedVirtualS += wasted
			rep.RecoveryCostUSD += tg.Billing.JobCost(wasted, curRanks)

			newRanks := gw.World.Size()
			newGrid, err := partition.BalancedGrid(newRanks, m.Nx, m.Ny, m.Nz)
			if err != nil {
				return nil, nil, fmt.Errorf("bench: cannot repartition after grow: %w", err)
			}
			if line >= 1 {
				rec.Record(startAt, "restore", "continuation resumes from the evacuated checkpoint after step %d (rollback %.3fs)",
					line, wasted)
			} else {
				rec.Record(startAt, "restore", "no checkpoint preceded the notice; the full-width world restarts the stepping from scratch (cold migration)")
			}
			rep.Shrink.RestoreStep = max(line, 0)
			mg.RestoreStep = rep.Shrink.RestoreStep
			// Grown-world rank -> pre-drain rank: survivors map through the
			// shrink, the joiners hold nothing.
			toOld := append([]int(nil), sr.NewToOld...)
			for len(toOld) < newRanks {
				toOld = append(toOld, -1)
			}
			if err := resumeOn(gw.World, newGrid, sr, toOld, doomed, line); err != nil {
				return nil, nil, err
			}
			// Replacements inherit the plan slots they replaced (roles,
			// not instances) so storm cascades can target them.
			for i := 0; i < replaceN && i < len(gw.NewNodes); i++ {
				nodeMap[origSlots[i]] = gw.NewNodes[i]
			}
			rep.Degraded = curRanks < o.Ranks

		case "shrink":
			// Reactive fallback: one multi-node shrink for the whole
			// coalesced group.
			mg.FallbackShrinks++
			if err := execShrink(af.World, doomed, origSlots, stopAt); err != nil {
				return nil, nil, err
			}

		default: // restart
			// Last rung of the ladder: nothing survived to continue on, so
			// relaunch the current shape from scratch. Every nodeMap entry
			// pointed at the lost world, so remaining scheduled fatals are
			// dropped on the next pass rather than aimed at fresh instances.
			mg.FallbackRestarts++
			rep.WastedVirtualS += stopAt
			rep.RecoveryCostUSD += tg.Billing.JobCost(stopAt, curRanks)
			rec.Record(stopAt, "restart", "cold restart at %d ranks (grid %dx%dx%d)",
				curRanks, state.grid[0], state.grid[1], state.grid[2])
			for on := range nodeMap {
				nodeMap[on] = -1
			}
			freshTopo, err := mp.BlockTopology(curRanks, s.cpn)
			if err != nil {
				return nil, nil, err
			}
			nextApp := app.regrid(state.grid, curRanks)
			protect(nextApp, freshTopo)
			state.app = nextApp
			world = nil
			app = nextApp
		}
	}
	rep.Decisions = rec.Decisions()
	return nil, nil, fmt.Errorf("bench: gave up after %d attempts (%d fault(s) outstanding)",
		maxAttempts, len(fatals))
}
