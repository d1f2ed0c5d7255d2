package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestRunRoundTrips(t *testing.T) {
	var out bytes.Buffer
	if code := run([]string{"-scenario", "4x2"}, &out); code != 0 {
		t.Fatalf("exit %d", code)
	}
	for _, want := range []string{"scenario 4x2", "wire sizes: ITS INIT", "round-trip: all three frames decode cleanly"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q:\n%s", want, out.String())
		}
	}
	if code := run([]string{"-scenario", "5x5"}, &out); code != 1 {
		t.Errorf("unknown scenario: exit %d, want 1", code)
	}
}
