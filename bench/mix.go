package main

import (
	"fmt"
	"hash/crc32"
	"net/http"
	"net/url"
	"time"
)

// readMix is the read traffic of serve-read-mixed and cluster-rw: 70 %
// query-language reads over 16 Zipf-weighted query variants, 10 %
// indexed mission lookups, 10 % whole archives, 10 % viz renders, on
// job IDs drawn Zipf s=1.1; one read in five is conditional.
type readMix struct {
	ids      []string
	jobs     *zipfTable
	variants *zipfTable
}

var (
	mixQueries = func() (out []string) {
		for i := 0; i < 16; i++ {
			var q string
			switch i % 4 {
			case 0:
				q = fmt.Sprintf("duration > 0.%03d order by duration desc limit %d", (i*37)%1000, 5+i%20)
			case 1:
				q = fmt.Sprintf("actor ~ \"Worker\" and depth >= %d limit %d", i%5, 10+i%50)
			case 2:
				q = fmt.Sprintf("mission = \"Superstep\" and start > 0.%02d order by start", i%100)
			default:
				q = fmt.Sprintf("depth = %d or duration >= 0.%02d", i%6, (i*13)%100)
			}
			out = append(out, url.QueryEscape(q))
		}
		return out
	}()
	mixMissions = []string{"Startup", "LoadGraph", "ProcessGraph", "Superstep", "Compute", "Iteration", "Cleanup"}
	mixViz      = []string{"breakdown", "cpu", "gantt"}
)

func newReadMix(ids []string) *readMix {
	return &readMix{ids: ids, jobs: newZipfTable(len(ids), 1.1), variants: newZipfTable(len(mixQueries), 1.1)}
}

// pick draws one read: its kind and path, and whether it is conditional.
func (m *readMix) pick(r *opRand) (kind, path string, conditional bool) {
	id := m.ids[m.jobs.sample(r.float())]
	conditional = r.float() < 0.2
	switch u := r.float(); {
	case u < 0.70:
		return "query", "/jobs/" + id + "/query?q=" + mixQueries[m.variants.sample(r.float())], conditional
	case u < 0.80:
		return "query", "/jobs/" + id + "/query?mission=" + mixMissions[r.intn(len(mixMissions))], conditional
	case u < 0.90:
		return "archive", "/jobs/" + id + "/archive", conditional
	default:
		return "viz", "/jobs/" + id + "/viz/" + mixViz[r.intn(len(mixViz))], conditional
	}
}

// reader is one client goroutine's memory of what it has read: the
// validator and the checksum of each path's last 200 answer.
type reader struct {
	c    *client
	etag map[string]string
	sum  map[string]uint32
}

func newReader(c *client) *reader {
	return &reader{c: c, etag: map[string]string{}, sum: map[string]uint32{}}
}

// read issues one read of the mix and checks the answer: 200 with a
// body, or 304 to a conditional read; and, the jobs being immutable,
// the same bytes as the last time this path was read.
func (rd *reader) read(tr *Tracer, op int, path string, conditional bool) (time.Duration, error) {
	etag := ""
	if conditional {
		etag = rd.etag[path]
	}
	sp := tr.Start("bench.read", 0, op)
	r, err := rd.c.do("GET", path, nil, etag)
	tr.End(sp)
	if err != nil {
		return 0, err
	}
	switch {
	case r.status == http.StatusNotModified && etag != "":
		return r.dur, nil
	case r.status != http.StatusOK || len(r.body) == 0:
		return r.dur, fmt.Errorf("GET %s: %d (%d bytes)", path, r.status, len(r.body))
	}
	sum := crc32.ChecksumIEEE(r.body)
	if old, seen := rd.sum[path]; seen && old != sum {
		return r.dur, fmt.Errorf("GET %s: bytes changed between identical requests", path)
	}
	rd.sum[path] = sum
	if tag := r.header.Get("ETag"); tag != "" {
		rd.etag[path] = tag
	}
	return r.dur, nil
}
