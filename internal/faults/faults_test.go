package faults

import (
	"context"
	"errors"
	"testing"
	"time"
)

func TestNilInjectorIsInert(t *testing.T) {
	var inj *Injector
	if err := inj.Fail("any.site"); err != nil {
		t.Fatalf("nil injector returned %v", err)
	}
	b, err := inj.Mangle("any.site", []byte("abc"))
	if err != nil || string(b) != "abc" {
		t.Fatalf("nil injector mangled write: %q %v", b, err)
	}
	inj.Disarm()
}

// total is the number of faults inj has injected.
func total(inj *Injector) uint64 {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	var n uint64
	for _, v := range inj.hits {
		n += v
	}
	return n
}

func TestDeterministicSchedule(t *testing.T) {
	cfg := config{Seed: 7, Rate: 0.5, Kinds: []kind{kindError, kindLatency}, Latency: time.Microsecond}
	a, b := newInjector(cfg), newInjector(cfg)
	for i := 0; i < 200; i++ {
		ea, eb := a.Fail("site.x"), b.Fail("site.x")
		if (ea == nil) != (eb == nil) {
			t.Fatalf("hit %d diverged: %v vs %v", i, ea, eb)
		}
	}
	if total(a) == 0 {
		t.Fatal("rate 0.5 never fired in 200 hits")
	}
	if total(a) != total(b) {
		t.Fatalf("totals diverged: %d vs %d", total(a), total(b))
	}
}

func TestRateOneAlwaysFires(t *testing.T) {
	inj := newInjector(config{Rate: 1})
	for i := 0; i < 10; i++ {
		if err := inj.Fail("s"); !errors.Is(err, errInjected) {
			t.Fatalf("hit %d: err = %v, want errInjected", i, err)
		}
	}
	if got := inj.hits["s"]; got != 10 {
		t.Fatalf("counted %d faults, want 10", got)
	}
}

func TestDisarmStopsFaults(t *testing.T) {
	inj := newInjector(config{Rate: 1})
	if err := inj.Fail("s"); err == nil {
		t.Fatal("armed injector did not fire")
	}
	inj.Disarm()
	for i := 0; i < 10; i++ {
		if err := inj.Fail("s"); err != nil {
			t.Fatalf("disarmed injector fired: %v", err)
		}
	}
}

func TestSiteOverrides(t *testing.T) {
	inj := newInjector(config{Rate: 1, Sites: map[string]float64{"immune.site": 0}})
	for i := 0; i < 20; i++ {
		if err := inj.Fail("immune.site"); err != nil {
			t.Fatalf("immune site fired: %v", err)
		}
	}
	if err := inj.Fail("other.site"); err == nil {
		t.Fatal("default-rate site did not fire")
	}
}

func TestPanicKind(t *testing.T) {
	inj := newInjector(config{Rate: 1, Kinds: []kind{kindPanic}})
	defer func() {
		r := recover()
		if _, ok := r.(panicValue); !ok {
			t.Fatalf("recovered %v (%T), want panicValue", r, r)
		}
	}()
	inj.Fail("s")
	t.Fatal("panic kind did not panic")
}

func TestHangRespectsContext(t *testing.T) {
	inj := newInjector(config{Rate: 1, Kinds: []kind{kindHang}})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	start := time.Now()
	err := inj.FailCtx(ctx, "s")
	if !errors.Is(err, errInjected) {
		t.Fatalf("hang returned %v, want errInjected", err)
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("hang did not release on context cancel")
	}
	// Without a context, hang degrades to a bounded latency spike.
	inj2 := newInjector(config{Rate: 1, Kinds: []kind{kindHang}, Latency: time.Microsecond})
	if err := inj2.Fail("s"); err != nil {
		t.Fatalf("context-free hang returned %v", err)
	}
}

func TestTornWriteIsStrictPrefix(t *testing.T) {
	inj := newInjector(config{Rate: 1, Kinds: []kind{kindTorn}})
	full := []byte("0123456789")
	b, err := inj.Mangle("w", full)
	if !errors.Is(err, errInjected) {
		t.Fatalf("torn write returned %v, want errInjected", err)
	}
	if len(b) >= len(full) || string(b) != string(full[:len(b)]) {
		t.Fatalf("torn bytes %q are not a strict prefix of %q", b, full)
	}
	// Torn never fires at non-write sites; with only kindTorn enabled a
	// Fail hit draws nothing.
	if err := inj.Fail("r"); err != nil {
		t.Fatalf("torn-only injector fired at read site: %v", err)
	}
}

func TestParse(t *testing.T) {
	inj, err := Parse("rate=0.25,seed=9,latency=2ms,kinds=error+torn,sites=archivedb.append:1+http.submit:0")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := inj.Mangle("archivedb.append", []byte("abcdef")); err == nil {
		t.Fatal("site with rate 1 did not fire")
	}
	if err := inj.Fail("http.submit"); err != nil {
		t.Fatalf("site with rate 0 fired: %v", err)
	}

	bad := []string{
		"", "rate=2", "rate=x", "seed=x", "latency=-1s", "latency=x",
		"kinds=nope", "sites=a", "sites=a:9", "mystery=1", "noequals",
	}
	for _, spec := range bad {
		if _, err := Parse(spec); err == nil {
			t.Fatalf("Parse(%q) accepted", spec)
		}
	}
}

func TestDescribeIsDeterministic(t *testing.T) {
	inj, err := Parse("rate=0.1,seed=3,kinds=error,sites=b.b:0.5+a.a:1")
	if err != nil {
		t.Fatal(err)
	}
	want := "faults: rate=0.1 seed=3 latency=1ms kinds=error sites=a.a:1+b.b:0.5"
	if got := inj.Describe(); got != want {
		t.Fatalf("Describe = %q, want %q", got, want)
	}
	var nilInj *Injector
	if nilInj.Describe() != "faults: none" {
		t.Fatal("nil Describe")
	}
}
