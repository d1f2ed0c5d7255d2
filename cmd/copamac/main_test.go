package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestRunOverheadTable(t *testing.T) {
	var out bytes.Buffer
	if code := run([]string{"-coherence", "4ms,30ms"}, &out); code != 0 {
		t.Fatalf("exit %d", code)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 3 || !strings.HasPrefix(lines[0], "coherence") {
		t.Fatalf("want a header and two rows, got:\n%s", out.String())
	}
	for i, tc := range []string{"4ms", "30ms"} {
		if f := strings.Fields(lines[i+1]); len(f) != 5 || f[0] != tc {
			t.Errorf("row %d = %q, want coherence %s and four overheads", i, lines[i+1], tc)
		}
	}
	if code := run([]string{"-coherence", "soon"}, &out); code != 1 {
		t.Errorf("bad coherence time: exit %d, want 1", code)
	}
}

func TestRunDCF(t *testing.T) {
	var out bytes.Buffer
	if code := run([]string{"-dcf", "-stations", "2", "-txops", "500"}, &out); code != 0 {
		t.Fatalf("exit %d", code)
	}
	if n := strings.Count(out.String(), "Jain="); n != 3 {
		t.Errorf("want one line per DCF variant (3), got %d:\n%s", n, out.String())
	}
}
