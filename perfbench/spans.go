package main

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"
)

// span is one interval of a job's stitched trace, in milliseconds from the
// trace origin.
type span struct {
	Name       string
	Track      string // the thread name: a shard ID, "job", "journal"
	Start, End float64
}

func (s span) dur() float64 { return s.End - s.Start }

// parseTrace reads the Chrome trace-event JSON served at
// /v1/jobs/{id}/trace and returns its spans: complete ("X") events as they
// are, and begin/end ("B"/"E") pairs matched per (pid, tid, name). A begin
// without its end (a job still open) is dropped.
func parseTrace(data []byte) ([]span, error) {
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			TS   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
			PID  int     `json:"pid"`
			TID  int     `json:"tid"`
			Args struct {
				Name string `json:"name"`
			} `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	type key struct {
		pid, tid int
		name     string
	}
	tracks := map[[2]int]string{}
	for _, e := range doc.TraceEvents {
		if e.Ph == "M" && e.Name == "thread_name" {
			tracks[[2]int{e.PID, e.TID}] = e.Args.Name
		}
	}
	open := map[key][]float64{}
	var out []span
	for _, e := range doc.TraceEvents {
		k := key{e.PID, e.TID, e.Name}
		track := tracks[[2]int{e.PID, e.TID}]
		switch e.Ph {
		case "X":
			out = append(out, span{e.Name, track, e.TS / 1000, (e.TS + e.Dur) / 1000})
		case "B":
			open[k] = append(open[k], e.TS)
		case "E":
			if st := open[k]; len(st) > 0 {
				out = append(out, span{e.Name, track, st[len(st)-1] / 1000, e.TS / 1000})
				open[k] = st[:len(st)-1]
			}
		}
	}
	return out, nil
}

// jobStep reports whether a zenspecd trace span is one of the daemon's steps
// inside a job span: a shard's queue wait, lease or backoff, or a journal
// fsync.
func jobStep(name string) bool {
	return name == "queue-wait" || name == "lease" || name == "backoff" || strings.HasPrefix(name, "fsync ")
}

// selfTime is the span's duration minus the part of its interval that the
// children cover; overlapping children are counted once.
func selfTime(parent span, children []span) float64 {
	var iv [][2]float64
	for _, c := range children {
		lo, hi := c.Start, c.End
		if lo < parent.Start {
			lo = parent.Start
		}
		if hi > parent.End {
			hi = parent.End
		}
		if hi > lo {
			iv = append(iv, [2]float64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	covered := 0.0
	for i := 0; i < len(iv); {
		lo, hi := iv[i][0], iv[i][1]
		for i++; i < len(iv) && iv[i][0] <= hi; i++ {
			if iv[i][1] > hi {
				hi = iv[i][1]
			}
		}
		covered += hi - lo
	}
	return parent.dur() - covered
}

// jobSelfTimes returns the self time of each job span: the part of the job's
// life not covered by any queue wait, lease, journal fsync or backoff, i.e.
// time the daemon spent between steps.
func jobSelfTimes(spans []span) []float64 {
	var out []float64
	for _, p := range spans {
		if strings.HasPrefix(p.Name, "job ") {
			out = append(out, selfTime(p, overlapping(spans, p, func(c span) bool { return jobStep(c.Name) })))
		}
	}
	return out
}

// leaseSelfTimes returns the self time of each lease span: grant to
// completion minus the worker's run span of the same shard (named "run " +
// the lease's track), i.e. the wire, heartbeat and completion handshake.
func leaseSelfTimes(spans []span) []float64 {
	var out []float64
	for _, p := range spans {
		if p.Name == "lease" {
			out = append(out, selfTime(p, overlapping(spans, p, func(c span) bool { return c.Name == "run "+p.Track })))
		}
	}
	return out
}

func overlapping(spans []span, p span, keep func(span) bool) []span {
	var out []span
	for _, c := range spans {
		if c.End > p.Start && c.Start < p.End && keep(c) {
			out = append(out, c)
		}
	}
	return out
}
