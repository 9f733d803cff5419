package shard

// The work-stealing fleet coordinator. The Fleet hands out bounded
// chunks of global spec indices on demand: a fast worker comes back for
// more, a slow one strands at most one chunk, and a dead one strands
// nothing — its chunk's uncommitted remainder goes straight back to the
// queue for whichever worker asks next. At the tail, idle workers
// speculatively re-execute the largest still-streaming chunk; every
// result commits at its global job-list index exactly once, first writer
// wins, so the duplicate results speculation produces are discarded
// without a trace and the merged archive stays byte-identical to
// -parallel 1 under any kill schedule. A slot's respawn budget is the
// only budget: a slot that exhausts it leaves the fleet, and the last
// slot to leave runs one more session on an in-process worker, which
// finishes the remainder and reports the campaign degraded rather than
// failed.
//
// The chunk lifecycle (DESIGN.md §4j):
//
//	assigned → streaming → committed
//	                     ↘ lost → re-dispatch
//	         ↘ speculated (tail only, one copy per chunk)

import (
	"context"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"time"

	"ntdts/internal/core"
	"ntdts/internal/journal"
)

// Fleet defaults for FleetOptions zero values.
const (
	// DefaultHeartbeat is the liveness beacon period workers are asked
	// for.
	DefaultHeartbeat = 500 * time.Millisecond
	// DefaultStallDeadline kills a worker whose stream produced nothing
	// — no record, no heartbeat — for this long.
	DefaultStallDeadline = 30 * time.Second
	// DefaultMaxRespawns bounds the replacement workers one slot may
	// consume before it leaves the fleet.
	DefaultMaxRespawns = 2
	// DefaultProgressDeadline kills a worker that heartbeats but
	// delivers no record for this long — the wedged-worker
	// detector the stall deadline cannot be (heartbeats reset it).
	DefaultProgressDeadline = 60 * time.Second
	// defaultMaxChunk caps the auto-sized chunk.
	defaultMaxChunk = 32
	// drainSlot is the slot number of the in-process drain session the
	// last exhausted slot runs; its assignments journal as "local".
	drainSlot = -1
)

// FleetOptions tune the work-stealing coordinator.
type FleetOptions struct {
	// Workers is the number of dispatch slots (0 = Campaign.Shards).
	Workers int
	// WorkerParallelism is each worker's run-pool width (0 = 1).
	WorkerParallelism int
	// Heartbeat is the liveness beacon period (0 = DefaultHeartbeat).
	Heartbeat time.Duration
	// StallDeadline kills a worker whose stream produced nothing — no
	// record, no heartbeat — for this long (0 = DefaultStallDeadline;
	// < 0 disables).
	StallDeadline time.Duration
	// ProgressDeadline kills a worker that produced no record for this
	// long even though heartbeats keep arriving (0 =
	// DefaultProgressDeadline; < 0 disables). It counts from the end of
	// the campaign policy's core.SupervisorOptions.Bound, so a run the
	// watchdog will quarantine never reads as a wedged worker.
	ProgressDeadline time.Duration
	// MaxRespawns bounds replacement workers per slot (0 =
	// DefaultMaxRespawns; < 0 means no respawns).
	MaxRespawns int
	// ChunkSize is the size of each fresh chunk (0 = auto: roughly four
	// chunks per worker, capped at 32).
	ChunkSize int
	// Spawn produces workers (nil = InProcess()); ignored when Spawners
	// is set.
	Spawn Spawner
	// Spawners, when non-empty, gives each slot its own spawner — the
	// TCP transport's one-address-per-slot shape. Overrides Workers.
	Spawners []Spawner
	// Transport names the worker transport for reporting ("inprocess",
	// "exec", "tcp"; derived from Spawn/Spawners when empty).
	Transport string
	// ChaosKill ("worker:afterRecords") SIGKILLs that slot's first
	// worker after N session records — the DTS_SHARD_CHAOS_KILL drill.
	ChaosKill string
	// ChaosHang ("worker:afterRecords") wedges that slot's first worker
	// after N records, heartbeats still flowing — DTS_SHARD_CHAOS_HANG.
	ChaosHang string
	// ChaosSlow ("worker:delayMS") makes that slot's first worker sleep
	// before every record — the deliberate straggler the speculation
	// benchmarks and the CI fleet-chaos gate use; DTS_SHARD_CHAOS_SLOW.
	ChaosSlow string
	// Journal, when non-nil, is attached to the campaign's ledger
	// (core.Ledger.AttachJournal), which writes the plan line and every
	// committed run and quarantine record, making the journal resumable
	// by dts -resume; the fleet adds the dispatch provenance trail
	// (assign lines). The caller writes the header. A campaign journaled
	// with core.WithJournal needs no Journal here: the fleet writes its
	// trail to the campaign's.
	Journal *journal.Writer
}

// Fleet runs prepared campaigns across a work-stealing worker fleet. It
// implements core.ShardExecutor and core.DispatchReporter.
type Fleet struct {
	opts FleetOptions

	mu   sync.Mutex
	last *core.DispatchStats
}

// NewFleet builds a fleet executor with defaults filled in.
func NewFleet(opts FleetOptions) *Fleet {
	if opts.WorkerParallelism <= 0 {
		opts.WorkerParallelism = 1
	}
	if opts.Heartbeat == 0 {
		opts.Heartbeat = DefaultHeartbeat
	}
	if opts.StallDeadline == 0 {
		opts.StallDeadline = DefaultStallDeadline
	}
	if opts.ProgressDeadline == 0 {
		opts.ProgressDeadline = DefaultProgressDeadline
	}
	if opts.MaxRespawns == 0 {
		opts.MaxRespawns = DefaultMaxRespawns
	}
	if opts.Transport == "" {
		switch {
		case len(opts.Spawners) > 0:
			opts.Transport = "tcp"
		case opts.Spawn != nil:
			opts.Transport = "exec"
		default:
			opts.Transport = "inprocess"
		}
	}
	if len(opts.Spawners) == 0 && opts.Spawn == nil {
		opts.Spawn = InProcess()
	}
	return &Fleet{opts: opts}
}

// DispatchStats implements core.DispatchReporter: how the last
// execution behaved.
func (f *Fleet) DispatchStats() *core.DispatchStats {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.last
}

// spawnerFor picks the slot's spawner; the drain always runs an
// in-process worker.
func (f *Fleet) spawnerFor(slot int) Spawner {
	switch {
	case slot == drainSlot:
		return InProcess()
	case len(f.opts.Spawners) > 0:
		return f.opts.Spawners[slot%len(f.opts.Spawners)]
	}
	return f.opts.Spawn
}

// sessionChaos is the failure drill armed on one slot's first session.
type sessionChaos struct {
	kill, hang, slowMS int
}

// streamLine is one decoded line (or read error) off a worker stream.
type streamLine struct {
	line *journal.Line
	err  error
}

// ExecuteShards implements core.ShardExecutor: dispatch chunks of the
// ledger's uncommitted jobs on demand, commit streamed records at their
// global indices through the ledger, survive worker loss, and degrade
// to in-process execution before failing. The campaign's attempt policy
// rides the session header into every worker, and the ledger's stop
// latch (the quarantine budget, or cancellation) ends dispatch with the
// partial results. A campaign with nothing left to run spawns no worker.
func (f *Fleet) ExecuteShards(ctx context.Context, c *core.Campaign, p *core.Prepared) ([]core.RunResult, error) {
	workers := f.opts.Workers
	if len(f.opts.Spawners) > 0 {
		workers = len(f.opts.Spawners)
	}
	if workers <= 0 {
		workers = c.Shards()
	}
	if workers < 1 {
		workers = 1
	}

	chaosKillW, chaosKillAfter, err := parseChaosKill(f.opts.ChaosKill)
	if err != nil {
		return nil, err
	}
	chaosHangW, chaosHangAfter, err := parseChaosKill(f.opts.ChaosHang)
	if err != nil {
		return nil, err
	}
	chaosSlowW, chaosSlowMS, err := parseChaosKill(f.opts.ChaosSlow)
	if err != nil {
		return nil, err
	}

	l := p.Ledger()
	jw := c.Journal()
	if f.opts.Journal != nil {
		jw = f.opts.Journal
		if err := l.AttachJournal(jw); err != nil {
			return nil, err
		}
	}
	// The quarantine budget stays with the ledger; the rest of the
	// policy rides the header.
	policy := c.Supervision()
	header := HeaderFor(c.Runner())
	header.WallDeadlineNS, header.MaxAttempts, header.Chaos = int64(policy.WallDeadline), policy.MaxAttempts, policy.Chaos
	d := newDispatcher(f, p, workers, jw)
	if d.progressDeadline > 0 {
		d.progressDeadline += policy.Bound()
	}

	// Cancellation watcher: ctx cancellation releases every slot (the
	// drain included) through the dispatcher's done channel.
	watchDone := make(chan struct{})
	go func() {
		select {
		case <-ctx.Done():
			d.cancel()
		case <-watchDone:
		}
	}()

	var wg sync.WaitGroup
	for s := 0; s < workers; s++ {
		chaos := sessionChaos{}
		if s == chaosKillW {
			chaos.kill = chaosKillAfter
		}
		if s == chaosHangW {
			chaos.hang = chaosHangAfter
		}
		if s == chaosSlowW {
			chaos.slowMS = chaosSlowMS
		}
		wg.Add(1)
		go func(s int, chaos sessionChaos) {
			defer wg.Done()
			f.slotLoop(ctx, s, d, header, chaos)
		}(s, chaos)
	}
	wg.Wait()
	close(watchDone)

	d.mu.Lock()
	stats := d.stats
	failure := d.failure
	d.mu.Unlock()
	if stats.Degraded {
		d.journalEvent(-1, "degraded", nil)
	}
	f.mu.Lock()
	f.last = &stats
	f.mu.Unlock()

	if failure != nil {
		return nil, failure
	}
	if cause := l.StopCause(); cause != nil {
		return l.Results(), cause
	}
	if pending := l.Pending(); len(pending) != 0 {
		return nil, fmt.Errorf("fleet: %d of %d runs unaccounted for", len(pending), len(p.Jobs))
	}
	return l.Results(), nil
}

// slotLoop drives one dispatch slot through as many worker sessions as
// its respawn budget allows; every error a session returns is a worker
// death. The last slot to exhaust its budget then runs the drain: one
// more session, on an in-process worker, under the same deadlines. A
// drain that dies too fails the campaign.
func (f *Fleet) slotLoop(ctx context.Context, slot int, d *dispatcher, header journal.Header, chaos sessionChaos) {
	for attempt := 0; !d.finished(); attempt++ {
		armed := sessionChaos{}
		if attempt == 0 {
			armed = chaos // the drill kills a slot's first worker only
		}
		if f.session(ctx, slot, d, header, armed) == nil {
			return
		}
		d.noteDeath()
		if attempt >= f.opts.MaxRespawns {
			if d.slotExhausted(slot) {
				if err := f.session(ctx, drainSlot, d, header, sessionChaos{}); err != nil {
					d.fail(len(d.jobs), fmt.Errorf("fleet: in-process drain: %w", err))
				}
			}
			return
		}
	}
}

// session runs one worker lifetime: spawn, send the header, then grab
// and stream chunks until the dispatcher runs dry or the worker dies.
func (f *Fleet) session(ctx context.Context, slot int, d *dispatcher, header journal.Header, chaos sessionChaos) error {
	conn, err := f.spawnerFor(slot)()
	if err != nil {
		return fmt.Errorf("fleet worker %d: spawn: %w", slot, err)
	}

	// Reader goroutine: the stream is a blocking pipe, so deadline and
	// cancellation handling need Next off the main select loop. The
	// channel lives for the whole session; awaitChunk consumes from it
	// chunk after chunk so no line is ever dropped between chunks.
	lines := make(chan streamLine)
	quit := make(chan struct{})
	readerDone := make(chan struct{})
	st := journal.NewStream(conn.Out)
	go func() {
		defer close(readerDone)
		for {
			l, err := st.Next()
			select {
			case lines <- streamLine{l, err}:
			case <-quit:
				return
			}
			if err != nil {
				return
			}
		}
	}()
	defer func() {
		close(quit)
		conn.Kill()
		// Reap only once the reader is gone (exec.Cmd.Wait closes the
		// stdout pipe under it), and in the background: a wedged
		// in-process worker never returns from Wait.
		<-readerDone
		go conn.Wait()
	}()

	w := &wire{w: conn.In}
	if err := w.writeLine(header); err != nil {
		return fmt.Errorf("fleet worker %d: send header: %w", slot, err)
	}

	first := true
	for {
		a := d.grab(slot)
		if a == nil {
			// Dispatcher dry: campaign complete, failed or cancelled.
			conn.In.Close()
			return nil
		}
		keys := make([]string, len(a.indices))
		for i, g := range a.indices {
			keys[i] = d.jobs[g].Key()
		}
		plan := journal.Plan{
			Kind: journal.KindPlan, Jobs: keys,
			Index:       append([]int(nil), a.indices...),
			Parallelism: f.opts.WorkerParallelism,
			HeartbeatNS: int64(f.opts.Heartbeat),
		}
		if first {
			plan.ChaosKillAfter = chaos.kill
			plan.ChaosHangAfter = chaos.hang
			plan.ChaosSlowMS = chaos.slowMS
			first = false
		}
		if err := w.writeLine(&plan); err != nil {
			d.lost(a)
			return fmt.Errorf("fleet worker %d: send plan: %w", slot, err)
		}
		if err := f.awaitChunk(d, slot, a, lines, conn); err != nil {
			d.lost(a)
			return err
		}
		d.finish(a)
	}
}

// awaitChunk consumes the worker's stream until every index of the
// assignment has arrived. Two deadlines run: the stall deadline resets
// on any line (a silent stream means a dead worker), the progress
// deadline resets only on run and quarantine records (a heartbeating
// stream with no results means a wedged worker). Records are validated
// against the assignment; commit deduplicates against speculative
// copies. A non-nil return is the worker's death; a fatal campaign error
// is recorded with d.fail, after which nil is returned and the
// dispatcher runs dry.
func (f *Fleet) awaitChunk(d *dispatcher, slot int, a *assignment, lines <-chan streamLine, conn *Conn) error {
	open := make(map[int]bool, len(a.indices))
	for _, g := range a.indices {
		open[g] = true
	}

	var stallC, progressC <-chan time.Time
	var stall, progress *time.Timer
	if f.opts.StallDeadline > 0 {
		stall = time.NewTimer(f.opts.StallDeadline)
		defer stall.Stop()
		stallC = stall.C
	}
	if d.progressDeadline > 0 {
		progress = time.NewTimer(d.progressDeadline)
		defer progress.Stop()
		progressC = progress.C
	}
	reset := func(t *time.Timer, dl time.Duration) {
		if t == nil {
			return
		}
		if !t.Stop() {
			select {
			case <-t.C:
			default:
			}
		}
		t.Reset(dl)
	}

	for len(open) > 0 {
		select {
		case m := <-lines:
			reset(stall, f.opts.StallDeadline)
			if m.err != nil {
				// EOF, torn record, or a garbled stream without a done
				// record: the worker died (or went insane) mid-chunk.
				return fmt.Errorf("fleet worker %d: stream ended early: %w", slot, m.err)
			}
			switch m.line.Kind {
			case journal.KindRun, journal.KindQuarantine:
				rec := m.line.Rec
				if !open[rec.Index] {
					d.fail(rec.Index, fmt.Errorf("fleet worker %d: record for job %d not in this chunk", slot, rec.Index))
					return nil
				}
				if err := d.commit(slot, rec); err != nil {
					d.fail(rec.Index, fmt.Errorf("fleet worker %d: %w", slot, err))
					return nil
				}
				delete(open, rec.Index)
				reset(progress, d.progressDeadline)
			case journal.KindHeartbeat:
				// Liveness only: any line resets the stall deadline.
			case journal.KindError:
				// The worker could not run its chunk at all (a plan key
				// it cannot parse): deterministic — a fresh worker would
				// fail the same way — so it fails the campaign. A run's
				// own failure never gets here; the worker's supervisor
				// quarantines it.
				d.fail(m.line.Rec.Index, fmt.Errorf("fleet worker %d: %s", slot, m.line.Rec.Message))
				return nil
			case journal.KindDone:
				return fmt.Errorf("fleet worker %d: done record mid-chunk (%d runs missing)", slot, len(open))
			default:
				d.fail(len(d.jobs), fmt.Errorf("fleet worker %d: unexpected %q record", slot, m.line.Kind))
				return nil
			}
		case <-stallC:
			conn.Kill()
			return fmt.Errorf("fleet worker %d: no record or heartbeat for %v", slot, f.opts.StallDeadline)
		case <-progressC:
			conn.Kill()
			return fmt.Errorf("fleet worker %d: heartbeats but no record for %v — wedged", slot, d.progressDeadline)
		case <-d.doneCh:
			// Campaign over (all committed elsewhere, a fatal error, or
			// the ledger's stop): abandon the worker; any indices still
			// open here are already committed or moot.
			conn.Kill()
			return nil
		}
	}
	return nil
}

// chunk is one unit of dispatch: a set of global job indices. live
// counts copies in flight (primary plus one speculative re-issue); the
// family is accounted once, whichever copy delivers first.
type chunk struct {
	id         int
	indices    []int
	live       int
	speculated bool
}

// assignment is one copy of a chunk handed to one executor.
type assignment struct {
	ch      *chunk
	indices []int
	slot    int
}

// dispatcher is the fleet's shared state: the job list, the ledger the
// runs commit to, and the chunk queues. All fields below mu are guarded
// by it (the ledger has its own lock, always taken after mu); cond
// wakes grabbers when work or completion state changes.
type dispatcher struct {
	jobs             []core.PlanJob
	ledger           *core.Ledger
	jw               *journal.Writer
	pending          []int // the uncommitted job indices fresh chunks are carved from
	progressDeadline time.Duration

	mu          sync.Mutex
	cond        *sync.Cond
	cursor      int      // next pending index not yet carved
	ready       []*chunk // lost chunks awaiting re-dispatch
	inflight    map[int]*chunk
	activeSlots int
	chunkSeq    int
	failure     error
	failureIdx  int
	doneCh      chan struct{}
	doneOnce    sync.Once
	stats       core.DispatchStats
	baseChunk   int
}

func newDispatcher(f *Fleet, p *core.Prepared, workers int, jw *journal.Writer) *dispatcher {
	l := p.Ledger()
	pending := l.Pending()
	base := f.opts.ChunkSize
	if base <= 0 {
		// Aim for a few grabs per worker so stealing has something to
		// steal, without dissolving into per-run dispatch overhead.
		base = (len(pending) + workers*4 - 1) / (workers * 4)
		if base > defaultMaxChunk {
			base = defaultMaxChunk
		}
	}
	if base < 1 {
		base = 1
	}
	d := &dispatcher{
		jobs:             p.Jobs,
		ledger:           l,
		jw:               jw,
		pending:          pending,
		progressDeadline: f.opts.ProgressDeadline,
		inflight:         make(map[int]*chunk),
		activeSlots:      workers,
		doneCh:           make(chan struct{}),
		baseChunk:        base,
	}
	d.cond = sync.NewCond(&d.mu)
	d.stats.Workers = workers
	d.stats.Transport = f.opts.Transport
	return d
}

func (d *dispatcher) finishedLocked() bool {
	return d.failure != nil || d.ledger.Complete() || d.ledger.StopCause() != nil
}

func (d *dispatcher) finished() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.finishedLocked()
}

// signalDone closes the done channel and wakes every waiter. Caller
// holds mu.
func (d *dispatcher) signalDone() {
	d.doneOnce.Do(func() { close(d.doneCh) })
	d.cond.Broadcast()
}

// cancel latches the ledger's stop, as the pool does on cancellation.
func (d *dispatcher) cancel() {
	d.ledger.Stop(core.ErrInterrupted)
	d.mu.Lock()
	d.signalDone()
	d.mu.Unlock()
}

// fail records a fatal campaign error; the lowest job index wins, the
// same rule the in-process pool applies.
func (d *dispatcher) fail(index int, err error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.failure == nil || index < d.failureIdx {
		d.failure, d.failureIdx = err, index
	}
	d.signalDone()
}

// journalEvent appends one provenance line (no-op without a journal).
// Safe under d.mu: the journal writer has its own lock and never calls
// back.
func (d *dispatcher) journalEvent(worker int, event string, indices []int) {
	if d.jw != nil {
		d.jw.WriteAssign(worker, event, indices)
	}
}

// grab hands the slot its next assignment: re-dispatched work first,
// then a fresh chunk, then — at the tail — a speculative copy of the
// largest still-streaming chunk. It blocks while all work is in flight
// elsewhere and returns nil when the campaign is over. The drain's
// assignments journal as "local".
func (d *dispatcher) grab(slot int) *assignment {
	d.mu.Lock()
	defer d.mu.Unlock()
	event := "assign"
	if slot == drainSlot {
		event = "local"
	}
	for {
		if d.finishedLocked() {
			return nil
		}
		for len(d.ready) > 0 {
			ch := d.ready[0]
			d.ready = d.ready[1:]
			un := d.ledger.Uncommitted(ch.indices)
			if len(un) == 0 {
				continue
			}
			ch.indices = un
			ch.live, ch.speculated = 1, false
			d.inflight[ch.id] = ch
			d.journalEvent(slot, event, un)
			return &assignment{ch: ch, indices: un, slot: slot}
		}
		if d.cursor < len(d.pending) {
			end := min(d.cursor+d.baseChunk, len(d.pending))
			idx := d.pending[d.cursor:end:end]
			d.cursor = end
			d.chunkSeq++
			ch := &chunk{id: d.chunkSeq, indices: idx, live: 1}
			d.inflight[ch.id] = ch
			d.stats.Chunks++
			d.journalEvent(slot, event, idx)
			d.cond.Broadcast() // a new inflight chunk is a new speculation target
			return &assignment{ch: ch, indices: idx, slot: slot}
		}
		if a := d.speculateLocked(slot); a != nil {
			return a
		}
		d.cond.Wait()
	}
}

// speculateLocked re-issues the biggest uncommitted in-flight chunk to
// an idle slot — one copy per chunk; first complete result wins and the
// loser's duplicates are discarded by commit. Caller holds mu.
func (d *dispatcher) speculateLocked(slot int) *assignment {
	var best *chunk
	var bestUn []int
	for _, ch := range d.inflight {
		if ch.speculated {
			continue
		}
		un := d.ledger.Uncommitted(ch.indices)
		if len(un) == 0 {
			continue
		}
		if best == nil || len(un) > len(bestUn) || (len(un) == len(bestUn) && ch.id < best.id) {
			best, bestUn = ch, un
		}
	}
	if best == nil {
		return nil
	}
	best.speculated = true
	best.live++
	d.stats.Speculated++
	d.journalEvent(slot, "speculate", bestUn)
	return &assignment{ch: best, indices: bestUn, slot: slot}
}

// commit merges one streamed run or quarantine record at its global
// index through the ledger, exactly once; duplicates from speculative
// copies return without a trace. The drain's records count as LocalRuns
// and mark the campaign degraded. The ledger's error is fatal.
func (d *dispatcher) commit(slot int, rec *journal.Record) error {
	fresh, err := d.ledger.CommitRecord(rec)
	if err != nil || !fresh {
		return err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if slot == drainSlot {
		d.stats.LocalRuns++
		d.stats.Degraded = true
	}
	if d.finishedLocked() {
		d.signalDone()
	} else {
		d.cond.Broadcast()
	}
	return nil
}

// finish retires one delivered (or abandoned-at-completion) copy.
func (d *dispatcher) finish(a *assignment) {
	d.mu.Lock()
	a.ch.live--
	if a.ch.live <= 0 {
		delete(d.inflight, a.ch.id)
	}
	d.cond.Broadcast()
	d.mu.Unlock()
}

// lost handles a copy that died with work outstanding: while a sibling
// copy survives, it owns the remainder; otherwise the uncommitted
// indices go straight back to the queue.
func (d *dispatcher) lost(a *assignment) {
	d.mu.Lock()
	defer d.mu.Unlock()
	ch := a.ch
	ch.live--
	un := d.ledger.Uncommitted(ch.indices)
	d.journalEvent(a.slot, "lost", un)
	if ch.live > 0 || len(un) == 0 {
		// A surviving copy covers the remainder, or nothing remains.
		if ch.live <= 0 {
			delete(d.inflight, ch.id)
		}
		d.cond.Broadcast()
		return
	}
	delete(d.inflight, ch.id)
	ch.indices = un
	d.ready = append(d.ready, ch)
	d.stats.Redispatched++
	d.journalEvent(-1, "redispatch", un)
	d.cond.Broadcast()
}

// noteDeath counts one dead worker session.
func (d *dispatcher) noteDeath() {
	d.mu.Lock()
	d.stats.WorkerDeaths++
	d.mu.Unlock()
}

// slotExhausted removes a slot whose respawn budget ran out and reports
// whether it was the last one, whose goroutine then runs the drain.
func (d *dispatcher) slotExhausted(slot int) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.activeSlots--
	d.stats.WorkersLost++
	d.journalEvent(slot, "exhausted", nil)
	return d.activeSlots == 0
}

// parseChaosKill parses a "worker:N" drill spec (empty = disabled,
// worker index -1).
func parseChaosKill(s string) (worker, n int, err error) {
	if s == "" {
		return -1, 0, nil
	}
	idx, rest, ok := strings.Cut(s, ":")
	if ok {
		worker, err = strconv.Atoi(idx)
		if err == nil {
			n, err = strconv.Atoi(rest)
		}
	}
	if !ok || err != nil || worker < 0 || n < 1 {
		return -1, 0, fmt.Errorf("bad chaos kill spec %q (want \"worker:afterRecords\")", s)
	}
	return worker, n, nil
}
