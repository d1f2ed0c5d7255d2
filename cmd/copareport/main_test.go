package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunWritesReport(t *testing.T) {
	path := filepath.Join(t.TempDir(), "report.html")
	var out bytes.Buffer
	if code := run([]string{"-topologies", "1", "-skip-copa-plus", "-o", path}, &out); code != 0 {
		t.Fatalf("exit %d", code)
	}
	if !strings.HasPrefix(out.String(), "wrote "+path) {
		t.Errorf("stdout %q does not name the report", out.String())
	}
	html, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(html, []byte("<!DOCTYPE html>")) || !bytes.Contains(html, []byte("<svg")) {
		t.Errorf("report is not an HTML page with inline SVG figures (%d bytes)", len(html))
	}
}
