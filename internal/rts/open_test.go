package rts

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"cata/internal/program"
	"cata/internal/sim"
)

// openRuntime builds an open-system FIFO runtime.
func openRuntime(t *testing.T, cores int, open OpenConfig) *Runtime {
	t.Helper()
	eng, m := newMachine(t, cores)
	cfg := fifoConfig(m, nil)
	cfg.Open = &open
	r, err := New(eng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestOpenBuildsAtAdmission: each admitted job's program is built once,
// when it arrives; a shed arrival is never built; a job's tokens are its
// own, so two overlapping jobs of one chain template do not serialize
// on each other; and finished jobs' records go back to the free list
// emptied of their program and token maps.
func TestOpenBuildsAtAdmission(t *testing.T) {
	var built []int
	resp := map[int]sim.Time{}
	tmpl := chainProg(3, 100_000)
	build := func(job int) (*program.Program, error) {
		built = append(built, job)
		return tmpl, nil
	}
	r := openRuntime(t, 4, OpenConfig{
		MaxInSystem: 2,
		OnDone:      func(job int, arrived, done sim.Time) { resp[job] = done - arrived },
	})
	// Jobs 0 and 1 overlap, job 2 finds the system full, job 3 arrives
	// after both finished.
	for i, at := range []sim.Time{0, 0, 10 * sim.Microsecond, 10 * sim.Millisecond} {
		if err := r.Inject(at, i, build); err != nil {
			t.Fatal(err)
		}
	}
	if len(built) != 0 {
		t.Fatalf("Inject built programs %v before the run", built)
	}
	res, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(built) != "[0 1 3]" {
		t.Fatalf("built jobs %v, want 0, 1 and 3 (2 is shed)", built)
	}
	if res.TasksRun != 9 || len(resp) != 3 {
		t.Fatalf("ran %d tasks, completed jobs %v", res.TasksRun, resp)
	}
	// Overlapping jobs 0 and 1 ran their chains side by side: had they
	// shared the template's token, job 1 would have queued behind job 0.
	if resp[1] > resp[0]*3/2 {
		t.Fatalf("responses %v and %v: job 1 waited on job 0's data", resp[0], resp[1])
	}
	if len(r.open.jobs) != 2 || len(r.open.free) != 2 {
		t.Fatalf("job table %d records, %d free; want 2 and 2", len(r.open.jobs), len(r.open.free))
	}
	for _, j := range r.open.jobs {
		if j.prog != nil || len(j.tokens) != 0 || len(j.fresh) != 0 {
			t.Fatalf("finished job record still holds its program or tokens: %+v", j)
		}
	}
}

// TestOpenBuildErrorEndsRun: a job whose program cannot be built, or is
// invalid, ends the run with an error naming the job; nothing panics.
func TestOpenBuildErrorEndsRun(t *testing.T) {
	boom := errors.New("boom")
	for _, tc := range []struct {
		name  string
		build func(job int) (*program.Program, error)
	}{
		{"error", func(job int) (*program.Program, error) {
			if job == 2 {
				return nil, boom
			}
			return forkJoin(1, 4, 10_000), nil
		}},
		{"invalid", func(job int) (*program.Program, error) {
			if job == 2 {
				return &program.Program{Name: "empty"}, nil
			}
			return forkJoin(1, 4, 10_000), nil
		}},
		{"nil", func(job int) (*program.Program, error) {
			if job == 2 {
				return nil, nil
			}
			return forkJoin(1, 4, 10_000), nil
		}},
	} {
		r := openRuntime(t, 4, OpenConfig{})
		for i := 0; i < 4; i++ {
			if err := r.Inject(sim.Time(i)*sim.Millisecond, i, tc.build); err != nil {
				t.Fatal(err)
			}
		}
		_, err := r.Run()
		if err == nil || !strings.Contains(err.Error(), "job 2") {
			t.Errorf("%s: Run error = %v, want one naming job 2", tc.name, err)
		}
		if tc.name == "error" && !errors.Is(err, boom) {
			t.Errorf("Run error %v lost the build error", err)
		}
	}
}

// TestInjectChecks: Inject refuses a closed-system runtime and a
// missing program builder.
func TestInjectChecks(t *testing.T) {
	build := func(int) (*program.Program, error) { return forkJoin(1, 2, 1000), nil }
	if err := openRuntime(t, 2, OpenConfig{}).Inject(0, 0, nil); err == nil {
		t.Fatal("Inject without a program builder succeeded")
	}
	eng, m := newMachine(t, 2)
	r, err := New(eng, fifoConfig(m, forkJoin(1, 2, 1000)))
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Inject(0, 0, build); err == nil {
		t.Fatal("Inject on a closed-system runtime succeeded")
	}
}
