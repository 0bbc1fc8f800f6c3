package main

import (
	"encoding/json"
	"io"
	"os"
	"strings"
	"testing"
)

// captureStdout runs f with os.Stdout redirected to a pipe and returns
// what it printed.
func captureStdout(t *testing.T, f func()) string {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	done := make(chan string)
	go func() {
		buf, _ := io.ReadAll(r)
		done <- string(buf)
	}()
	defer func() { os.Stdout = old }()
	f()
	w.Close()
	return <-done
}

// TestScenariosSmoke drives the `costmodel scenarios` subcommand end to
// end: catalog listing, a DP-search ranking with -topk, and the JSON
// output shape.
func TestScenariosSmoke(t *testing.T) {
	list := captureStdout(t, func() { runScenarios(nil) })
	for _, name := range []string{"join2-fk", "join8-chain", "join6-islands"} {
		if !strings.Contains(list, name) {
			t.Errorf("catalog listing misses %s:\n%s", name, list)
		}
	}

	dp := captureStdout(t, func() {
		runScenarios([]string{"-scenario", "join2-fk", "-topk", "2", "-top", "-1"})
	})
	if !strings.Contains(dp, "plans:") || !strings.Contains(dp, "#1") {
		t.Errorf("DP ranking output malformed:\n%s", dp)
	}

	raw := captureStdout(t, func() {
		runScenarios([]string{"-scenario", "join8-chain", "-json", "-top", "1", "-leftdeep"})
	})
	var parsed struct {
		Scenario string `json:"scenario"`
		Profile  string `json:"profile"`
		Plans    int    `json:"plans"`
		Ranking  []struct {
			Plan    string  `json:"plan"`
			TotalNS float64 `json:"total_ns"`
		} `json:"ranking"`
	}
	if err := json.Unmarshal([]byte(raw), &parsed); err != nil {
		t.Fatalf("-json output is not JSON: %v\n%s", err, raw)
	}
	if parsed.Scenario != "join8-chain" || parsed.Plans == 0 || len(parsed.Ranking) != 1 {
		t.Errorf("unexpected JSON ranking: %+v", parsed)
	}
	if parsed.Ranking[0].TotalNS <= 0 {
		t.Errorf("non-positive plan cost: %+v", parsed.Ranking[0])
	}
}
