// Package faults is a deterministic, seedable fault injector for chaos
// testing the serving layer. Production code is threaded with named
// injection points (sites) such as "archivedb.append" or "executor.run";
// an armed Injector decides at each hit — from a seeded PRNG, so a given
// seed replays the exact same fault schedule — whether to return an
// error, sleep a latency spike, panic, hang until the caller's context
// is canceled, or tear a write in half. A nil *Injector is inert, so
// call sites do not guard their hooks; the fast path of a disarmed
// injector is a single atomic load.
//
// The injector is safe for concurrent use. Tests (and the -chaos flag
// on granula-serve) construct one from a spec string with Parse, and
// can disarm it at runtime to model a fault source
// clearing — the recovery half of every chaos scenario.
package faults

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// kind is one class of injectable fault.
type kind string

// Injectable fault classes.
const (
	// kindError makes the site return errInjected.
	kindError kind = "error"
	// kindLatency makes the site sleep config.Latency before succeeding.
	kindLatency kind = "latency"
	// kindPanic makes the site panic.
	kindPanic kind = "panic"
	// kindHang blocks the site until its context is canceled (sites
	// without a context degrade to a latency spike).
	kindHang kind = "hang"
	// kindTorn truncates a write to a strict prefix and fails it;
	// only write sites that call Mangle can draw it.
	kindTorn kind = "torn"
)

// errInjected marks every synthetic failure so tests and retry logic
// can distinguish injected faults from real ones with errors.Is.
var errInjected = errors.New("faults: injected failure")

// panicValue is the value thrown by kindPanic faults, prefixed with the
// site name, so recovery paths can assert they caught an injected panic.
type panicValue string

func (p panicValue) String() string { return string(p) }

// config describes a fault schedule.
type config struct {
	// Seed seeds the decision PRNG; the same seed and call sequence
	// produce the same faults.
	Seed int64
	// Rate is the default probability in [0,1] that a site hit draws a
	// fault.
	Rate float64
	// Latency is the injected delay for kindLatency (default 1ms).
	Latency time.Duration
	// Kinds are the enabled fault classes; empty enables kindError only.
	Kinds []kind
	// Sites overrides Rate per site name; a site mapped to 0 is immune.
	Sites map[string]float64
}

// Injector decides, per injection-point hit, whether and how to fail.
type Injector struct {
	armed atomic.Bool

	mu   sync.Mutex
	rng  *rand.Rand
	cfg  config
	hits map[string]uint64 // injected faults by site
}

// newInjector returns an armed injector for cfg. A zero Rate arms an
// injector that never fires.
func newInjector(cfg config) *Injector {
	if cfg.Latency <= 0 {
		cfg.Latency = time.Millisecond
	}
	if len(cfg.Kinds) == 0 {
		cfg.Kinds = []kind{kindError}
	}
	inj := &Injector{
		rng:  rand.New(rand.NewSource(cfg.Seed)),
		cfg:  cfg,
		hits: map[string]uint64{},
	}
	inj.armed.Store(true)
	return inj
}

// Disarm stops all fault injection for good. Disarming models the
// fault source clearing in recovery tests.
func (inj *Injector) Disarm() {
	if inj != nil {
		inj.armed.Store(false)
	}
}

// draw rolls the dice for one site hit. It returns the chosen kind and
// whether a fault fires, consuming PRNG state only when armed.
func (inj *Injector) draw(site string, write bool) (kind, bool) {
	if inj == nil || !inj.armed.Load() {
		return "", false
	}
	inj.mu.Lock()
	defer inj.mu.Unlock()
	rate := inj.cfg.Rate
	if r, ok := inj.cfg.Sites[site]; ok {
		rate = r
	}
	if rate <= 0 || inj.rng.Float64() >= rate {
		return "", false
	}
	kinds := make([]kind, 0, len(inj.cfg.Kinds))
	for _, k := range inj.cfg.Kinds {
		if k == kindTorn && !write {
			continue // torn writes only make sense at write sites
		}
		kinds = append(kinds, k)
	}
	if len(kinds) == 0 {
		return "", false
	}
	kind := kinds[inj.rng.Intn(len(kinds))]
	inj.hits[site]++
	return kind, true
}

// latency returns the configured injected delay.
func (inj *Injector) latency() time.Duration {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	return inj.cfg.Latency
}

// Fail is the plain injection point: it may sleep, panic, or return an
// error wrapping errInjected. Sites without a context degrade kindHang
// to a latency spike so they cannot wedge forever.
func (inj *Injector) Fail(site string) error {
	return inj.fire(site, nil)
}

// FailCtx is Fail for sites that hold a cancelable context; kindHang
// blocks until the context is canceled and returns its error.
func (inj *Injector) FailCtx(ctx context.Context, site string) error {
	return inj.fire(site, ctx)
}

func (inj *Injector) fire(site string, ctx context.Context) error {
	kind, ok := inj.draw(site, false)
	if !ok {
		return nil
	}
	switch kind {
	case kindLatency:
		time.Sleep(inj.latency())
		return nil
	case kindPanic:
		panic(panicValue("faults: injected panic at " + site))
	case kindHang:
		if ctx == nil || ctx.Done() == nil {
			time.Sleep(inj.latency())
			return nil
		}
		<-ctx.Done()
		// Wrap the context error too, so callers can classify the hang as
		// a deadline overrun or a cancellation with errors.Is.
		return fmt.Errorf("%w: hang at %s: %w", errInjected, site, ctx.Err())
	default: // kindError
		return fmt.Errorf("%w at %s", errInjected, site)
	}
}

// Mangle is the write-site injection point: given the bytes about to be
// written, it may return them unchanged (possibly after a latency
// spike), or return a strict prefix plus an error — the caller should
// write the prefix and fail the operation, simulating a crash mid-write
// (a torn write the storage engine must detect on recovery).
func (inj *Injector) Mangle(site string, b []byte) ([]byte, error) {
	kind, ok := inj.draw(site, true)
	if !ok {
		return b, nil
	}
	switch kind {
	case kindLatency:
		time.Sleep(inj.latency())
		return b, nil
	case kindPanic:
		panic(panicValue("faults: injected panic at " + site))
	case kindTorn:
		inj.mu.Lock()
		n := 0
		if len(b) > 0 {
			n = inj.rng.Intn(len(b))
		}
		inj.mu.Unlock()
		return b[:n], fmt.Errorf("%w: torn write at %s (%d of %d bytes)", errInjected, site, n, len(b))
	case kindHang:
		time.Sleep(inj.latency())
		return b, nil
	default: // kindError
		return nil, fmt.Errorf("%w at %s", errInjected, site)
	}
}

// Parse builds an injector from a -chaos spec string: comma-separated
// key=value pairs.
//
//	rate=0.1            default fault probability
//	seed=42             PRNG seed
//	latency=5ms         injected delay for latency faults
//	kinds=error+latency enabled kinds, '+'-separated
//	sites=a.b:0.5+c.d:1 per-site rate overrides, '+'-separated
//
// An empty spec is an error; "rate=0" parses to an armed-but-silent
// injector.
func Parse(spec string) (*Injector, error) {
	if strings.TrimSpace(spec) == "" {
		return nil, fmt.Errorf("faults: empty chaos spec")
	}
	cfg := config{Rate: 0.01}
	for _, part := range strings.Split(spec, ",") {
		key, val, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok {
			return nil, fmt.Errorf("faults: bad chaos entry %q (want key=value)", part)
		}
		switch key {
		case "rate":
			r, err := strconv.ParseFloat(val, 64)
			if err != nil || r < 0 || r > 1 {
				return nil, fmt.Errorf("faults: bad rate %q (want 0..1)", val)
			}
			cfg.Rate = r
		case "seed":
			s, err := strconv.ParseInt(val, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("faults: bad seed %q", val)
			}
			cfg.Seed = s
		case "latency":
			d, err := time.ParseDuration(val)
			if err != nil || d < 0 {
				return nil, fmt.Errorf("faults: bad latency %q", val)
			}
			cfg.Latency = d
		case "kinds":
			for _, k := range strings.Split(val, "+") {
				switch kind := kind(k); kind {
				case kindError, kindLatency, kindPanic, kindHang, kindTorn:
					cfg.Kinds = append(cfg.Kinds, kind)
				default:
					return nil, fmt.Errorf("faults: unknown kind %q", k)
				}
			}
		case "sites":
			cfg.Sites = map[string]float64{}
			for _, ent := range strings.Split(val, "+") {
				name, rateStr, ok := strings.Cut(ent, ":")
				if !ok {
					return nil, fmt.Errorf("faults: bad site entry %q (want name:rate)", ent)
				}
				r, err := strconv.ParseFloat(rateStr, 64)
				if err != nil || r < 0 || r > 1 {
					return nil, fmt.Errorf("faults: bad site rate %q", rateStr)
				}
				cfg.Sites[name] = r
			}
		default:
			return nil, fmt.Errorf("faults: unknown chaos key %q", key)
		}
	}
	return newInjector(cfg), nil
}

// Describe renders the injector's configuration for logs, with sites
// sorted so output is deterministic.
func (inj *Injector) Describe() string {
	if inj == nil {
		return "faults: none"
	}
	inj.mu.Lock()
	defer inj.mu.Unlock()
	kinds := make([]string, len(inj.cfg.Kinds))
	for i, k := range inj.cfg.Kinds {
		kinds[i] = string(k)
	}
	s := fmt.Sprintf("faults: rate=%g seed=%d latency=%s kinds=%s",
		inj.cfg.Rate, inj.cfg.Seed, inj.cfg.Latency, strings.Join(kinds, "+"))
	if len(inj.cfg.Sites) > 0 {
		names := make([]string, 0, len(inj.cfg.Sites))
		for n := range inj.cfg.Sites {
			names = append(names, n)
		}
		sort.Strings(names)
		ents := make([]string, len(names))
		for i, n := range names {
			ents[i] = fmt.Sprintf("%s:%g", n, inj.cfg.Sites[n])
		}
		s += " sites=" + strings.Join(ents, "+")
	}
	return s
}
