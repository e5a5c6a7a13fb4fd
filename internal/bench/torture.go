package bench

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	slider "repro"
	"repro/internal/vfs"
)

// TortureConfig parameterises the disk-fault torture harness
// (cmd/sliderbench -torture): seeded fault schedules run against a
// durable reasoner under concurrent ingest, retraction and checkpoint
// load, asserting the degradation contract end to end.
type TortureConfig struct {
	Schedules int   // seeded schedules to run
	Writers   int   // concurrent ingest goroutines per schedule
	Batches   int   // acknowledged batches each writer must land
	BatchSize int   // statements per batch
	Faults    int   // fault rounds injected per schedule
	Seed      int64 // base seed; schedule i runs with Seed+i
}

func (c *TortureConfig) fill() {
	if c.Schedules <= 0 {
		c.Schedules = 4
	}
	if c.Writers <= 0 {
		c.Writers = 4
	}
	if c.Batches <= 0 {
		c.Batches = 8
	}
	if c.BatchSize <= 0 {
		c.BatchSize = 16
	}
	if c.Faults <= 0 {
		c.Faults = 4
	}
}

// TortureSchedule is one seeded schedule's outcome. A schedule passes
// when Violations is empty: every injected fault degraded and recovered
// per the state machine, reads kept serving while degraded, no
// acknowledged batch was lost across recovery or reopen, and recovery
// never re-fsynced a failed descriptor.
type TortureSchedule struct {
	Seed           int64
	FaultsInjected int
	Degradations   int
	RefusedWrites  int64
	DegradedReads  int64
	AckedOps       int
	CheckpointErrs int64
	ElapsedMS      float64
	Violations     []string
}

// TortureReport is the outcome of a torture run; cmd/sliderbench
// -torture prints it with WriteTortureTable.
type TortureReport struct {
	Writers    int
	Batches    int
	BatchSize  int
	Faults     int
	Schedules  []TortureSchedule
	Violations int
}

// tortureOp is one acknowledged operation, recorded in global
// acknowledgement order so an in-memory reasoner can recompute the
// expected closure. Writers only ever touch their own subjects, so the
// interleaving across writers cannot change the closure.
type tortureOp struct {
	retract bool
	sts     []slider.Statement
}

// Torture runs the configured number of seeded fault schedules and
// reports per-schedule outcomes. It returns an error only on harness
// failures (tempdir, open); contract violations are data, reported in
// the schedules themselves so CI can print them all before failing.
func Torture(ctx context.Context, cfg TortureConfig) (*TortureReport, error) {
	cfg.fill()
	rep := &TortureReport{
		Writers: cfg.Writers, Batches: cfg.Batches,
		BatchSize: cfg.BatchSize, Faults: cfg.Faults,
	}
	for i := 0; i < cfg.Schedules; i++ {
		sched, err := runTortureSchedule(ctx, cfg.Seed+int64(i), cfg)
		if err != nil {
			return nil, err
		}
		rep.Schedules = append(rep.Schedules, sched)
		rep.Violations += len(sched.Violations)
	}
	return rep, nil
}

func tortureTerm(name string) slider.Term {
	return slider.IRI("http://torture.example/" + name)
}

// writerBatch builds writer w's b-th instance batch: unique subjects
// typed with the writer's own class, so retraction and closure math
// stay independent across writers.
func writerBatch(w, b, size int) []slider.Statement {
	sts := make([]slider.Statement, 0, size)
	for i := 0; i < size; i++ {
		sts = append(sts, slider.NewStatement(
			tortureTerm(fmt.Sprintf("s%d_%d_%d", w, b, i)),
			slider.IRI(slider.Type),
			tortureTerm(fmt.Sprintf("Class%d", w))))
	}
	return sts
}

func runTortureSchedule(ctx context.Context, seed int64, cfg TortureConfig) (TortureSchedule, error) {
	sched := TortureSchedule{Seed: seed}
	start := time.Now()
	deadline := start.Add(2 * time.Minute)
	if d, ok := ctx.Deadline(); ok && d.Before(deadline) {
		deadline = d
	}
	rng := rand.New(rand.NewSource(seed))

	dir, err := os.MkdirTemp("", "slider-torture-*")
	if err != nil {
		return sched, err
	}
	defer os.RemoveAll(dir)

	ffs := vfs.NewFault(vfs.OS)
	r, err := slider.Open(dir, slider.RhoDF,
		slider.WithVFS(ffs), slider.WithFsync(), slider.WithViewMaxAge(-1),
		slider.WithLogger(slog.New(slog.DiscardHandler)))
	if err != nil {
		return sched, err
	}

	var (
		mu         sync.Mutex
		acked      []tortureOp
		violations []string
		refused    atomic.Int64
		degReads   atomic.Int64
		ckptErrs   atomic.Int64
	)
	violate := func(format string, args ...any) {
		mu.Lock()
		violations = append(violations, fmt.Sprintf(format, args...))
		mu.Unlock()
	}
	ack := func(op tortureOp) {
		mu.Lock()
		acked = append(acked, op)
		mu.Unlock()
	}

	// Writers: land the configured batches, retrying refusals — a
	// refusal is the contract working, a lost acknowledged batch is not.
	// Every third batch also retracts one statement acknowledged earlier.
	var wg sync.WaitGroup
	for w := 0; w < cfg.Writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			apply := func(op tortureOp) bool {
				for {
					var err error
					if op.retract {
						_, err = r.Retract(context.Background(), op.sts...)
					} else {
						_, err = r.AddBatch(op.sts)
					}
					if err == nil {
						ack(op)
						return true
					}
					if !errors.Is(err, slider.ErrDegraded) {
						violate("writer %d: unexpected write error: %v", w, err)
						return false
					}
					refused.Add(1)
					if time.Now().After(deadline) {
						violate("writer %d: still refused at the schedule deadline", w)
						return false
					}
					time.Sleep(2 * time.Millisecond)
				}
			}
			schema := tortureOp{sts: []slider.Statement{slider.NewStatement(
				tortureTerm(fmt.Sprintf("Class%d", w)), slider.IRI(slider.SubClassOf),
				tortureTerm(fmt.Sprintf("Super%d", w)))}}
			if !apply(schema) {
				return
			}
			for b := 0; b < cfg.Batches; b++ {
				sts := writerBatch(w, b, cfg.BatchSize)
				if !apply(tortureOp{sts: sts}) {
					return
				}
				if b%3 == 2 {
					if !apply(tortureOp{retract: true, sts: sts[:1]}) {
						return
					}
				}
			}
		}(w)
	}

	// Checkpointer: explicit checkpoints under load, so fault windows
	// also land on snapshot writes and manifest renames. Errors are
	// expected while a fault is armed; they must heal, not accumulate.
	stop := make(chan struct{})
	var bgWG sync.WaitGroup
	bgWG.Add(1)
	go func() {
		defer bgWG.Done()
		for {
			select {
			case <-stop:
				return
			case <-time.After(20 * time.Millisecond):
			}
			if err := r.Checkpoint(context.Background()); err != nil {
				ckptErrs.Add(1)
			}
		}
	}()

	// Health watcher: the state machine has no legal path into failed
	// from injected transient faults; reads must keep serving while
	// degraded.
	bgWG.Add(1)
	go func() {
		defer bgWG.Done()
		for {
			select {
			case <-stop:
				return
			case <-time.After(time.Millisecond):
			}
			h := r.Health()
			if h.Status == slider.HealthFailed {
				violate("health reached failed: %s", h.Cause)
				return
			}
			if h.ReadOnly {
				if _, err := r.Select("SELECT ?s WHERE { ?s <" + slider.Type + "> <http://torture.example/Class0> . }"); err != nil {
					violate("query refused while degraded: %v", err)
				} else {
					degReads.Add(1)
				}
			}
		}
	}()

	// Fault rounds: arm a fault, wait for the degradation to surface,
	// clear it, wait for recovery. One-shot faults may be consumed by an
	// append (read-only degradation) or a checkpoint write (degraded but
	// writable) — both are legal surfacings.
	for f := 0; f < cfg.Faults && time.Now().Before(deadline); f++ {
		time.Sleep(time.Duration(5+rng.Intn(20)) * time.Millisecond)
		switch rng.Intn(3) {
		case 0:
			ffs.FailFsync(1, nil)
		case 1:
			ffs.SetWriteBudget(int64(rng.Intn(5)))
		case 2:
			ffs.TornWrite(1)
		}
		for r.Health().Status == slider.HealthOK {
			if time.Now().After(deadline) {
				violate("fault round %d: armed fault never degraded", f)
				break
			}
			time.Sleep(time.Millisecond)
		}
		if r.Health().Status != slider.HealthOK {
			sched.Degradations++
		}
		sched.FaultsInjected++
		ffs.Clear()
		for r.Health().Status != slider.HealthOK {
			if time.Now().After(deadline) {
				violate("fault round %d: never recovered to ok; health %+v", f, r.Health())
				break
			}
			time.Sleep(time.Millisecond)
		}
	}

	wg.Wait()
	close(stop)
	bgWG.Wait()
	if err := r.Wait(context.Background()); err != nil {
		violate("Wait after schedule: %v", err)
	}

	// The ground truth: an in-memory reasoner that never saw a fault,
	// fed exactly the acknowledged ops in acknowledgement order.
	mu.Lock()
	sched.AckedOps = len(acked)
	ops := append([]tortureOp(nil), acked...)
	mu.Unlock()
	mem := slider.New(slider.RhoDF, slider.WithWorkers(2))
	for _, op := range ops {
		var err error
		if op.retract {
			_, err = mem.Retract(context.Background(), op.sts...)
		} else {
			_, err = mem.AddBatch(op.sts)
		}
		if err != nil {
			violate("replaying acked ops in memory: %v", err)
		}
	}
	if err := mem.Wait(context.Background()); err != nil {
		violate("in-memory Wait: %v", err)
	}
	want := closureStrings(mem)
	mem.Close(context.Background())

	if got := closureStrings(r); !equalStrings(got, want) {
		violate("live closure diverged from acknowledged ops: %d triples, want %d", len(got), len(want))
	}
	if err := r.Close(context.Background()); err != nil {
		violate("Close: %v", err)
	}
	if n := ffs.RefsyncViolations(); n != 0 {
		violate("recovery re-fsynced a failed descriptor %d times", n)
	}

	// No lost acknowledged batch: the closure survives a cold reopen.
	r2, err := slider.Open(dir, slider.RhoDF,
		slider.WithLogger(slog.New(slog.DiscardHandler)))
	if err != nil {
		violate("reopen: %v", err)
	} else {
		if err := r2.Wait(context.Background()); err != nil {
			violate("reopen Wait: %v", err)
		}
		if got := closureStrings(r2); !equalStrings(got, want) {
			violate("reopened closure diverged from acknowledged ops: %d triples, want %d", len(got), len(want))
		}
		r2.Close(context.Background())
	}

	sched.RefusedWrites = refused.Load()
	sched.DegradedReads = degReads.Load()
	sched.CheckpointErrs = ckptErrs.Load()
	sched.ElapsedMS = float64(time.Since(start).Microseconds()) / 1000
	mu.Lock()
	sched.Violations = violations
	mu.Unlock()
	return sched, nil
}

func closureStrings(r *slider.Reasoner) []string {
	var out []string
	r.Statements(func(st slider.Statement) bool {
		out = append(out, st.String())
		return true
	})
	sort.Strings(out)
	return out
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// WriteTortureTable renders the report for a terminal.
func WriteTortureTable(w io.Writer, rep *TortureReport) {
	fmt.Fprintf(w, "Disk-fault torture: %d schedules, %d writers x %d batches x %d triples, %d fault rounds each\n",
		len(rep.Schedules), rep.Writers, rep.Batches, rep.BatchSize, rep.Faults)
	fmt.Fprintf(w, "%-8s | %7s | %9s | %8s | %9s | %9s | %9s | %10s\n",
		"Seed", "Faults", "Degraded", "Refused", "DegReads", "CkptErrs", "AckedOps", "Elapsed ms")
	fmt.Fprintln(w, strings.Repeat("-", 92))
	for _, s := range rep.Schedules {
		fmt.Fprintf(w, "%-8d | %7d | %9d | %8d | %9d | %9d | %9d | %10.1f\n",
			s.Seed, s.FaultsInjected, s.Degradations, s.RefusedWrites,
			s.DegradedReads, s.CheckpointErrs, s.AckedOps, s.ElapsedMS)
		for _, v := range s.Violations {
			fmt.Fprintf(w, "  VIOLATION: %s\n", v)
		}
	}
	if rep.Violations == 0 {
		fmt.Fprintln(w, "PASS: no contract violations")
	} else {
		fmt.Fprintf(w, "FAIL: %d contract violations\n", rep.Violations)
	}
}
