package obs

import (
	"io"
	"log/slog"
	"os"
	"sync/atomic"
)

// The package logger: a slog text logger to stderr at Info by default.
// Everything in the pipeline logs through obs.Logger() with consistent
// keys (scenario, topology, scheme, seed), so experiments are grep-able
// and a caller can redirect the whole tree's output with SetLogOutput.
var (
	logLevel  slog.LevelVar
	logger    atomic.Pointer[slog.Logger]
	logOutput io.Writer = os.Stderr
)

func init() {
	logLevel.Set(slog.LevelInfo)
	logger.Store(slog.New(slog.NewTextHandler(logOutput, &slog.HandlerOptions{Level: &logLevel})))
}

// Logger returns the current structured logger.
func Logger() *slog.Logger { return logger.Load() }

// SetLogOutput redirects the default text logger to w.
func SetLogOutput(w io.Writer) {
	if w == nil {
		w = os.Stderr
	}
	logOutput = w
	logger.Store(slog.New(slog.NewTextHandler(w, &slog.HandlerOptions{Level: &logLevel})))
}

// SetVerbose toggles debug-level logging — the CLIs' -v flag.
func SetVerbose(on bool) {
	if on {
		logLevel.Set(slog.LevelDebug)
	} else {
		logLevel.Set(slog.LevelInfo)
	}
}
