package surface

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// claim is one entry of BENCH_claims.json.
type claim struct {
	PR       int      `json:"pr"`
	Source   string   `json:"source"`
	Parent   *string  `json:"parent"`
	Workload string   `json:"workload"`
	Metric   string   `json:"metric"`
	Unit     string   `json:"unit"`
	Better   string   `json:"better"`
	Host     hostInfo `json:"host"`
	Args     string   `json:"args"`
	Seeds    []int    `json:"seeds"`
	Pairs    []pair   `json:"pairs"`

	ParentStats sideStats `json:"parentStats"`
	ChangeStats sideStats `json:"changeStats"`
	BetterIn    *int      `json:"betterIn"`
	Of          *int      `json:"of"`
	Verdict     string    `json:"verdict"`
}

type hostInfo struct {
	CPU        *string `json:"cpu"`
	Cores      *int    `json:"cores"`
	GOMAXPROCS *int    `json:"gomaxprocs"`
	Go         *string `json:"go"`
}

type pair struct {
	Seed   int      `json:"seed"`
	First  *string  `json:"first"`
	Parent *float64 `json:"parent"`
	Change *float64 `json:"change"`
}

type sideStats struct {
	Median *float64 `json:"median"`
	Q1     *float64 `json:"q1"`
	Q3     *float64 `json:"q3"`
}

// quartiles returns the median and quartiles of v, each by linear
// interpolation at p(n+1) of the sorted values, clamped to the ends.
func quartiles(v []float64) (q1, median, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	at := func(p float64) float64 {
		x := p*float64(len(s)+1) - 1 // 0-based position
		switch {
		case x <= 0:
			return s[0]
		case x >= float64(len(s)-1):
			return s[len(s)-1]
		}
		i := int(x)
		return s[i] + (x-float64(i))*(s[i+1]-s[i])
	}
	return at(0.25), at(0.5), at(0.75)
}

// near reports whether a stored statistic matches the recomputed one to
// the four decimals the file keeps.
func near(stored *float64, want float64) bool {
	return stored != nil && math.Abs(*stored-want) <= 1e-4+1e-9*math.Abs(want)
}

// TestBenchClaims checks BENCH_claims.json, the record of every
// performance claim: each entry has the schema's fields, a measured
// entry names its host and every pair's first side, and every median,
// quartile, count and verdict is recomputed from the listed pairs, so
// the file cannot state more than its pairs show. An entry copied from
// CHANGES.md without pairs holds its medians and verdict and nothing
// else.
func TestBenchClaims(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "..", "BENCH_claims.json"))
	if err != nil {
		t.Fatal(err)
	}
	var file struct {
		About  string  `json:"about"`
		Claims []claim `json:"claims"`
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&file); err != nil {
		t.Fatalf("BENCH_claims.json: %v", err)
	}
	if file.About == "" || len(file.Claims) == 0 {
		t.Fatal("BENCH_claims.json needs an about text and at least one claim")
	}
	workloads := map[string]bool{"fig5-pipeline": true, "serve-write": true, "serve-read-mixed": true,
		"query2-analytics": true, "stream-live": true, "cluster-rw": true}
	metrics := map[string]string{"live_heap_mb": "MB", "op_ms_p50": "ms", "setup_s": "s"}
	for i, c := range file.Claims {
		where := func(format string, args ...any) {
			t.Helper()
			t.Errorf("claim %d (PR %d, %s %s): "+format, append([]any{i, c.PR, c.Workload, c.Metric}, args...)...)
		}
		if i > 0 && c.PR < file.Claims[i-1].PR {
			where("claims are appended in PR order")
		}
		measured := c.Source == "measured"
		if !measured && c.Source != "CHANGES.md PR "+strconv.Itoa(c.PR) {
			where(`source %q, want "measured" or "CHANGES.md PR %d"`, c.Source, c.PR)
		}
		if c.PR <= 0 || !workloads[c.Workload] || metrics[c.Metric] != c.Unit || c.Better != "lower" {
			where("bad pr, workload, metric, unit or direction: %d %q %q %q %q", c.PR, c.Workload, c.Metric, c.Unit, c.Better)
		}
		if !strings.Contains(c.Args, "--workload "+c.Workload+" ") || !strings.Contains(c.Args, "--seed S") {
			where("args %q do not name the workload and the seed", c.Args)
		}
		if c.Host.Cores == nil || *c.Host.Cores <= 0 {
			where("host cores missing")
		}
		if measured && (c.Parent == nil || c.Host.CPU == nil || c.Host.GOMAXPROCS == nil || c.Host.Go == nil) {
			where("a measured claim names its parent commit, CPU, GOMAXPROCS and Go version")
		}
		if c.Verdict != "met" && c.Verdict != "not met" {
			where("verdict %q", c.Verdict)
		}
		if c.ParentStats.Median == nil || c.ChangeStats.Median == nil {
			where("medians missing")
			continue
		}
		if c.Pairs == nil {
			if measured || c.ParentStats.Q1 != nil || c.ParentStats.Q3 != nil || c.ChangeStats.Q1 != nil ||
				c.ChangeStats.Q3 != nil || c.BetterIn != nil || c.Of != nil {
				where("without pairs an entry is copied from CHANGES.md and holds only medians and a verdict")
			}
			continue
		}
		if len(c.Pairs) < 10 || len(c.Pairs) != len(c.Seeds) {
			where("%d pairs for %d seeds; a claim rests on at least ten", len(c.Pairs), len(c.Seeds))
			continue
		}
		var pv, cv []float64
		better := 0
		for k, p := range c.Pairs {
			if p.Seed != c.Seeds[k] || p.Parent == nil || p.Change == nil {
				where("pair %d: seed %d (seeds list %d) or a value missing", k, p.Seed, c.Seeds[k])
				continue
			}
			switch {
			case p.First == nil && measured:
				where("pair %d: a measured pair names the side that ran first", k)
			case p.First != nil && *p.First != "parent" && *p.First != "change":
				where("pair %d: first %q", k, *p.First)
			case measured && k > 0 && c.Pairs[k-1].First != nil && *p.First == *c.Pairs[k-1].First:
				where("pairs %d and %d ran the same side first; pairs alternate", k-1, k)
			}
			pv, cv = append(pv, *p.Parent), append(cv, *p.Change)
			if *p.Change < *p.Parent {
				better++
			}
		}
		if len(pv) != len(c.Pairs) {
			continue
		}
		for _, side := range []struct {
			name  string
			v     []float64
			stats sideStats
		}{{"parent", pv, c.ParentStats}, {"change", cv, c.ChangeStats}} {
			q1, med, q3 := quartiles(side.v)
			if !near(side.stats.Median, med) || !near(side.stats.Q1, q1) || !near(side.stats.Q3, q3) {
				where("%s stats %v/%v/%v, the pairs give %.4f/%.4f/%.4f", side.name,
					deref(side.stats.Q1), deref(side.stats.Median), deref(side.stats.Q3), q1, med, q3)
			}
		}
		if c.BetterIn == nil || c.Of == nil || *c.BetterIn != better || *c.Of != len(c.Pairs) {
			where("betterIn/of %v/%v, the pairs give %d/%d", deref(c.BetterIn), deref(c.Of), better, len(c.Pairs))
		}
		q1, pMed, q3 := quartiles(pv)
		_, cMed, _ := quartiles(cv)
		verdict := "not met"
		if better*10 >= len(c.Pairs)*9 && pMed-cMed > q3-q1 {
			verdict = "met"
		}
		if c.Verdict != verdict {
			where("verdict %q, the pairs give %q", c.Verdict, verdict)
		}
	}
}

func deref[T any](p *T) any {
	if p == nil {
		return nil
	}
	return *p
}
