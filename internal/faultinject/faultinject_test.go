package faultinject

import (
	"errors"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"bglpred/internal/ledger"
)

// TestNilInjectorIsNoOp: the production configuration never fires, at
// any point, whatever was asked of it. Every exported method is called
// on the nil receiver, so call sites need no nil guard; a new method
// fails the count below until it joins the calls here.
func TestNilInjectorIsNoOp(t *testing.T) {
	var in *Injector
	points := []Point{
		ShardPanic, ShardSlow, IngestCorrupt, GateForwardDown, GateForwardPartial, GateProbeFlap,
		FsWrite, FsSync, FsRename, FsTruncate, FsRead, FsCorrupt,
	}
	if len(points) != 12 {
		t.Errorf("%d fault points listed, the package declares 12", len(points))
	}
	seen := make(map[Point]bool)
	for _, p := range points {
		if seen[p] {
			t.Errorf("fault point %q is declared twice", p)
		}
		seen[p] = true
	}
	const called = 4 // Set, Fire, Hits, Fires
	if n := reflect.TypeOf(in).NumMethod(); n != called {
		t.Errorf("*Injector has %d exported methods, the nil-receiver checks call %d", n, called)
	}
	for _, p := range points {
		in.Set(p, Plan{Panic: true}) // must not panic or crash
		for i := 0; i < 3; i++ {
			if err := in.Fire(p); err != nil {
				t.Fatalf("nil injector fired at %s: %v", p, err)
			}
		}
		if in.Hits(p) != 0 || in.Fires(p) != 0 {
			t.Fatalf("nil injector reported activity at %s", p)
		}
	}
}

func TestUnarmedPointNeverFires(t *testing.T) {
	in := New(1)
	for i := 0; i < 100; i++ {
		if err := in.Fire(FsWrite); err != nil {
			t.Fatalf("unarmed point fired: %v", err)
		}
	}
	if in.Hits(FsWrite) != 0 {
		t.Fatal("unarmed point accumulated hits")
	}
}

func TestEverySchedule(t *testing.T) {
	in := New(1)
	in.Set(FsWrite, Plan{Every: 3})
	var pattern []bool
	for i := 0; i < 9; i++ {
		pattern = append(pattern, in.Fire(FsWrite) != nil)
	}
	want := []bool{false, false, true, false, false, true, false, false, true}
	for i := range want {
		if pattern[i] != want[i] {
			t.Fatalf("Every=3 pattern = %v, want %v", pattern, want)
		}
	}
}

func TestAfterAndTimes(t *testing.T) {
	in := New(1)
	in.Set(FsSync, Plan{After: 2, Times: 2})
	var fired int
	for i := 1; i <= 10; i++ {
		err := in.Fire(FsSync)
		if err != nil {
			fired++
			if i <= 2 {
				t.Fatalf("fired on hit %d, inside the After=2 grace", i)
			}
		}
	}
	if fired != 2 {
		t.Fatalf("fired %d times, Times=2 should bound it", fired)
	}
	if in.Hits(FsSync) != 10 || in.Fires(FsSync) != 2 {
		t.Fatalf("hits=%d fires=%d, want 10/2", in.Hits(FsSync), in.Fires(FsSync))
	}
}

func TestProbIsDeterministicPerSeed(t *testing.T) {
	run := func(seed uint64) []bool {
		in := New(seed)
		in.Set(IngestCorrupt, Plan{Prob: 0.5})
		out := make([]bool, 64)
		for i := range out {
			out[i] = in.Fire(IngestCorrupt) != nil
		}
		return out
	}
	a, b := run(42), run(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed produced different fire sequences")
		}
	}
	c := run(43)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical 64-step sequences (PRNG not seeded)")
	}
	var fires int
	for _, f := range a {
		if f {
			fires++
		}
	}
	if fires == 0 || fires == len(a) {
		t.Fatalf("Prob=0.5 fired %d of %d (gate not probabilistic)", fires, len(a))
	}
}

func TestSetRearmsAndResetsCounters(t *testing.T) {
	in := New(1)
	in.Set(FsRename, Plan{})
	_ = in.Fire(FsRename)
	in.Set(FsRename, Plan{After: 1})
	if in.Hits(FsRename) != 0 {
		t.Fatal("re-arming did not reset counters")
	}
	if err := in.Fire(FsRename); err != nil {
		t.Fatal("After=1 must skip the first hit after re-arm")
	}
	in.Set(FsRename, Plan{After: math.MaxInt}) // how a test disarms a point
	for i := 0; i < 3; i++ {
		if err := in.Fire(FsRename); err != nil {
			t.Fatal("disarmed point fired")
		}
	}
}

func TestPlanErrAndErrInjected(t *testing.T) {
	in := New(1)
	in.Set(FsWrite, Plan{})
	if err := in.Fire(FsWrite); !errors.Is(err, ErrInjected) {
		t.Fatalf("default injected error = %v, want ErrInjected", err)
	}
	in.Set(FsWrite, Plan{Err: ENOSPC})
	if err := in.Fire(FsWrite); !errors.Is(err, ENOSPC) {
		t.Fatalf("Plan.Err not propagated: %v", err)
	}
}

func TestPanicPlanThrowsTypedValue(t *testing.T) {
	in := New(1)
	in.Set(ShardPanic, Plan{Panic: true})
	defer func() {
		r := recover()
		p, ok := r.(Panic)
		if !ok || p.Point != ShardPanic {
			t.Fatalf("panic value = %#v, want Panic{ShardPanic}", r)
		}
	}()
	_ = in.Fire(ShardPanic)
	t.Fatal("panic plan did not panic")
}

func TestDelayOnlyPlanIsSlowNotFailed(t *testing.T) {
	in := New(1)
	in.Set(ShardSlow, Plan{Delay: 10 * time.Millisecond})
	start := time.Now()
	if err := in.Fire(ShardSlow); err != nil {
		t.Fatalf("delay-only plan returned an error: %v", err)
	}
	if d := time.Since(start); d < 10*time.Millisecond {
		t.Fatalf("Fire returned after %v, want >= 10ms", d)
	}
}

func TestFsFaultModes(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "f.bin")
	payload := []byte("0123456789abcdef")

	t.Run("passthrough", func(t *testing.T) {
		fsys := NewFs(nil, nil) // nil injector: pure passthrough
		if err := ledger.WriteFileAtomic(fsys, path, payload, true); err != nil {
			t.Fatal(err)
		}
		got, err := fsys.ReadFile(path)
		if err != nil || string(got) != string(payload) {
			t.Fatalf("passthrough read = %q, %v", got, err)
		}
	})

	t.Run("enospc", func(t *testing.T) {
		in := New(1)
		in.Set(FsWrite, Plan{Err: ENOSPC})
		err := ledger.WriteFileAtomic(NewFs(in, nil), filepath.Join(dir, "x"), payload, true)
		if !errors.Is(err, ENOSPC) {
			t.Fatalf("err = %v, want ENOSPC through the wrap", err)
		}
	})

	t.Run("short write", func(t *testing.T) {
		in := New(1)
		in.Set(FsWrite, Plan{Err: ENOSPC, ShortWrite: true})
		fsys := NewFs(in, nil)
		f, err := fsys.CreateTemp(dir, ".tmp-*")
		if err != nil {
			t.Fatal(err)
		}
		defer os.Remove(f.Name())
		n, err := f.Write(payload)
		f.Close()
		if n != len(payload)/2 || !errors.Is(err, ENOSPC) {
			t.Fatalf("short write = (%d, %v), want (%d, ENOSPC)", n, err, len(payload)/2)
		}
	})

	t.Run("fsync", func(t *testing.T) {
		in := New(1)
		in.Set(FsSync, Plan{})
		err := ledger.WriteFileAtomic(NewFs(in, nil), filepath.Join(dir, "y"), payload, true)
		if !errors.Is(err, ErrInjected) || !strings.Contains(err.Error(), "fs.sync") {
			t.Fatalf("fsync fault = %v", err)
		}
	})

	t.Run("rename", func(t *testing.T) {
		in := New(1)
		in.Set(FsRename, Plan{})
		target := filepath.Join(dir, "z")
		err := ledger.WriteFileAtomic(NewFs(in, nil), target, payload, true)
		if !errors.Is(err, ErrInjected) {
			t.Fatalf("rename fault = %v", err)
		}
		if _, statErr := os.Stat(target); !os.IsNotExist(statErr) {
			t.Fatal("failed rename must not leave the target in place")
		}
	})

	t.Run("read failure", func(t *testing.T) {
		in := New(1)
		in.Set(FsRead, Plan{})
		if _, err := NewFs(in, nil).ReadFile(path); !errors.Is(err, ErrInjected) {
			t.Fatalf("read fault = %v", err)
		}
	})

	t.Run("read truncation", func(t *testing.T) {
		in := New(1)
		in.Set(FsCorrupt, Plan{Corrupt: Truncate})
		got, err := NewFs(in, nil).ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(payload)/2 {
			t.Fatalf("truncated read returned %d bytes, want %d", len(got), len(payload)/2)
		}
	})

	t.Run("read bit flip", func(t *testing.T) {
		in := New(1)
		in.Set(FsCorrupt, Plan{Corrupt: FlipByte})
		got, err := NewFs(in, nil).ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(payload) || got[len(got)-1] == payload[len(payload)-1] {
			t.Fatalf("flip read = %q, want last byte mutated", got)
		}
		// The on-disk file must be untouched: corruption is read-side.
		clean, _ := os.ReadFile(path)
		if string(clean) != string(payload) {
			t.Fatal("read corruption scribbled on the underlying file")
		}
	})
}

func BenchmarkFireNilInjector(b *testing.B) {
	var in *Injector
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := in.Fire(ShardPanic); err != nil {
			b.Fatal(err)
		}
	}
}
