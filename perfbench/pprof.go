package main

import (
	"context"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/pprof"
	"time"
)

// topN is how many functions the profile summary lists.
const topN = 30

// startProfile starts a CPU profile into path and returns the function
// that stops it and closes the file.
func startProfile(path string) (func() error, error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, err
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return func() error {
		pprof.StopCPUProfile()
		return f.Close()
	}, nil
}

// writeTraceFiles writes base.spans.tsv and renders base.cpu.pprof into
// base.top.txt, a flat top-N by self CPU. The top-N needs the go
// tool; without it the file says why it is empty.
func writeTraceFiles(base string, spans []span) error {
	f, err := os.Create(base + ".spans.tsv")
	if err != nil {
		return err
	}
	if err := writeSpans(f, spans); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	bin, err := os.Executable()
	if err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	cmd := exec.CommandContext(ctx, "go", "tool", "pprof", "-top", fmt.Sprintf("-nodecount=%d", topN), bin, base+".cpu.pprof")
	cmd.Env = append(os.Environ(), "PPROF_TMPDIR="+filepath.Dir(base))
	out, err := cmd.CombinedOutput()
	if err != nil {
		out = append(out, []byte(fmt.Sprintf("\ngo tool pprof: %v\n", err))...)
	}
	return os.WriteFile(base+".top.txt", out, 0o644)
}
