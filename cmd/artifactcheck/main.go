// Command artifactcheck validates the JSON artifacts the tools write and
// exits nonzero on the first file that fails. A bare array, or an object
// with a "traceEvents" key, is a Chrome trace (-trace): it needs at least
// one event, each with a phase. Any other object is a run report (-report)
// and must pass report.Read: a strict decode against the current schema
// (unknown fields rejected) and the report's consistency checks. It is the
// assertion behind `make trace-smoke` and `make report-smoke`.
//
// Usage:
//
//	artifactcheck trace.json run.json [more.json ...]
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"

	"logpopt/internal/obs/report"
)

func main() {
	if len(os.Args) < 2 {
		fmt.Fprintln(os.Stderr, "usage: artifactcheck file.json [file.json ...]")
		os.Exit(2)
	}
	for _, path := range os.Args[1:] {
		summary, err := check(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "artifactcheck: %s: %v\n", path, err)
			os.Exit(1)
		}
		fmt.Printf("%s: %s\n", path, summary)
	}
}

// check validates the artifact at path and returns its one-line summary.
func check(path string) (string, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return "", err
	}
	var doc struct {
		TraceEvents *[]struct {
			Ph string `json:"ph"`
		} `json:"traceEvents"`
	}
	switch trimmed := bytes.TrimSpace(raw); {
	case len(trimmed) == 0:
		return "", errors.New("empty file")
	case trimmed[0] == '[':
		err = json.Unmarshal(raw, &doc.TraceEvents)
	default:
		err = json.Unmarshal(raw, &doc)
	}
	if err != nil {
		return "", fmt.Errorf("not valid JSON: %v", err)
	}
	if doc.TraceEvents == nil {
		r, err := report.Read(raw)
		if err != nil {
			return "", err
		}
		return fmt.Sprintf("%s %s P=%d finish %d, bound %d (gap %d), %d series, %d violations",
			r.Tool, r.Op, r.Machine.P, r.Finish, r.Bound, r.Gap, len(r.Timeseries), r.Violations), nil
	}
	events := *doc.TraceEvents
	for i, ev := range events {
		if ev.Ph == "" {
			return "", fmt.Errorf("event %d has no phase", i)
		}
	}
	if len(events) == 0 {
		return "", errors.New("no trace events")
	}
	return fmt.Sprintf("%d trace events", len(events)), nil
}
