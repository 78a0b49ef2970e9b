package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call across a layer boundary, recorded by the
// benchmark around the program's public entry points. Spans of one
// epoch share its number as the request id; Parent is 0 for a root.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Name   string `json:"name"`
	Epoch  int64  `json:"epoch"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder holds the traced phase's spans in memory; they are written
// out once the run ends. Safe for concurrent use: raw fetches and
// server-side collects record from other goroutines.
type recorder struct {
	base   time.Time
	nextID atomic.Int64

	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{base: time.Now()} }

// now is the recorder clock: nanoseconds since the recorder was made.
func (r *recorder) now() int64 { return int64(time.Since(r.base)) }

// id reserves a span id, so children can name a parent that has not
// ended yet.
func (r *recorder) id() int64 { return r.nextID.Add(1) }

func (r *recorder) add(s span) {
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// record adds a finished span that started at start and ends now.
func (r *recorder) record(id, parent int64, name string, epoch, start int64) {
	r.add(span{ID: id, Parent: parent, Name: name, Epoch: epoch, Start: start, End: r.now()})
}

// layerRow is one line of the self-time table.
type layerRow struct {
	Name  string
	Count int
	Total int64 // summed span durations, ns
	Self  int64 // summed durations minus the time children cover, ns
}

// selfTimes folds spans into one row per span name. A span's self time
// is its duration less the union of its children's intervals clipped
// to it, so concurrent children (raw fetches on pool workers, both
// monitors' collects) are not counted twice.
func selfTimes(spans []span) []layerRow {
	children := make(map[int64][]int)
	for i, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	rows := make(map[string]*layerRow)
	type iv struct{ lo, hi int64 }
	var ivs []iv
	for _, s := range spans {
		ivs = ivs[:0]
		for _, ci := range children[s.ID] {
			c := spans[ci]
			lo, hi := max(c.Start, s.Start), min(c.End, s.End)
			if hi > lo {
				ivs = append(ivs, iv{lo, hi})
			}
		}
		sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
		var covered, curLo, curHi int64
		for i, v := range ivs {
			switch {
			case i == 0:
				curLo, curHi = v.lo, v.hi
			case v.lo > curHi:
				covered += curHi - curLo
				curLo, curHi = v.lo, v.hi
			case v.hi > curHi:
				curHi = v.hi
			}
		}
		if len(ivs) > 0 {
			covered += curHi - curLo
		}
		row := rows[s.Name]
		if row == nil {
			row = &layerRow{Name: s.Name}
			rows[s.Name] = row
		}
		row.Count++
		row.Total += s.End - s.Start
		row.Self += s.End - s.Start - covered
	}
	out := make([]layerRow, 0, len(rows))
	for _, r := range rows {
		out = append(out, *r)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Self > out[b].Self })
	return out
}

// printSelfTimes writes the self-time table per epoch, with each
// span's self time as a share of the epoch wall time. Spans of the two
// monitors run in parallel, so shares can sum past 100 %; the replay
// spans run outside the timed path and are listed apart.
func printSelfTimes(w io.Writer, rows []layerRow, epochs int) {
	var epochTotal int64
	for _, r := range rows {
		if r.Name == "epoch" {
			epochTotal = r.Total
		}
	}
	n := float64(max(epochs, 1))
	fmt.Fprintf(w, "# self time per layer over %d traced epochs\n", epochs)
	fmt.Fprintf(w, "# %-22s %8s %12s %12s %9s\n", "span", "count", "self_ms/ep", "total_ms/ep", "self/wall")
	for _, replay := range []bool{false, true} {
		if replay {
			fmt.Fprintf(w, "# replays (outside the timed path)\n")
		}
		for _, r := range rows {
			if strings.HasPrefix(r.Name, "replay") != replay {
				continue
			}
			share := "-"
			if !replay && epochTotal > 0 {
				share = fmt.Sprintf("%.1f%%", 100*float64(r.Self)/float64(epochTotal))
			}
			fmt.Fprintf(w, "# %-22s %8d %12.3f %12.3f %9s\n", r.Name, r.Count,
				float64(r.Self)/1e6/n, float64(r.Total)/1e6/n, share)
		}
	}
}

// writeSpans dumps the spans as JSON lines to dir/<workload>.spans.jsonl.
func writeSpans(dir, workload string, spans []span) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, workload+".spans.jsonl")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return "", err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
