package network

// lockstepEngine is the deterministic single-goroutine engine: players step
// in increasing ID order with synchronous next-round delivery.
type lockstepEngine struct{}

// Name implements Engine.
func (lockstepEngine) Name() string { return EngineLockstep }

// Run implements Engine. Lockstep delivery is strictly synchronous, so any
// Scheduler left in the config is cleared before the run state is built.
func (e lockstepEngine) Run(cfg Config) (*Result, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.Engine == nil {
		cfg.Engine = e
	}
	cfg.Scheduler = nil
	return runLockstep(cfg)
}

// runLockstep executes the run in a single goroutine, stepping players in
// increasing ID order. It is fully deterministic. It is shared verbatim by
// the async engine (all asynchrony lives in the delivery calendar the
// Scheduler fills) and, through proxy processes, by the wire engine.
func runLockstep(cfg Config) (*Result, error) {
	st := newRunState(cfg)

	// Round 0: Init. No player has an inbox or can halt yet, so the round
	// is the compute-then-merge sequence below without Deliver and Halt.
	st.sends = st.sends[:0]
	for i, v := range st.ids {
		st.cur = v
		st.procs[i].Init(st.out)
		st.ends[i] = len(st.sends)
		st.haltedNow[i] = false
	}
	st.mergeRound(0)
	st.sealRound(0)
	st.refreshDecisions() // record Init-time decisions as round 0

	for round := 1; round <= st.maxRounds; round++ {
		st.applyChurn(round)
		live := st.takePending(round)
		if live == 0 && st.futureLive() == 0 && st.allHalted() {
			break
		}
		quiescent := live == 0 && st.futureLive() == 0

		// Compute phase: run every live player against its inbox; its sends
		// append to the round send slice and ends[i] marks where they stop.
		// Merging only afterwards keeps the tracer event order fixed: every
		// Deliver first, then each player's Send/Drop/Delay events and Halt.
		st.sends = st.sends[:0]
		for i, v := range st.ids {
			if st.isHalted(v) {
				continue
			}
			inbox := st.inboxOf(v)
			st.noteInbox(v, round, inbox)
			st.cur = v
			st.haltedNow[i] = !st.procs[i].Round(round, inbox, st.out)
			st.ends[i] = len(st.sends)
		}
		st.mergeRound(round)
		sent := st.sealRound(round)
		st.rounds = round
		// The round is fully processed: inboxes handed out this round are
		// dead, so their buffer can back future deliveries.
		st.recycle()
		if st.stopEarly() {
			break
		}
		// Quiescence: nothing was in flight and nothing new was produced,
		// so every later round is identical — stop. Pending churn blocks
		// the shortcut: a future edge addition can revive rejected sends.
		if quiescent && sent == 0 && !st.churnPending() {
			break
		}
	}
	res := st.result()
	st.release()
	return res, nil
}
