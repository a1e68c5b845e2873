package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// repoRoot finds the directory holding cmd/dbwipes: the working
// directory when run as `go run ./bench`, its parent under
// `go run -C bench .`.
func repoRoot() (string, error) {
	for _, dir := range []string{".", ".."} {
		if st, err := os.Stat(filepath.Join(dir, "cmd", "dbwipes", "main.go")); err == nil && !st.IsDir() {
			return filepath.Abs(dir)
		}
	}
	return "", errors.New("bench: cmd/dbwipes not found in . or ..; run from the repository root or bench/")
}

// buildServer compiles the real cmd/dbwipes into outDir. The Go build
// cache makes every build after the first a relink at most.
func buildServer(ctx context.Context, root, outDir string) (string, error) {
	bin := filepath.Join(outDir, "dbwipes")
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "./cmd/dbwipes")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("build cmd/dbwipes: %w\n%s", err, out)
	}
	return bin, nil
}

// serverProc is one running dbwipes process.
type serverProc struct {
	cmd  *exec.Cmd
	base string // http://127.0.0.1:port
	logs bytes.Buffer
	done chan struct{} // closed once Wait returned
	err  error         // Wait's result, valid after done
}

// freeAddr asks the kernel for an unused loopback port.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// startServer launches bin on a free loopback port and returns once
// GET /api/tables answers 200, i.e. once every table is loaded or
// recovered. The process is always reaped: by stop, or here on failure.
func startServer(ctx context.Context, bin string, args []string) (*serverProc, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	p := &serverProc{base: "http://" + addr, done: make(chan struct{})}
	p.cmd = exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	p.cmd.Stdout = &p.logs
	p.cmd.Stderr = &p.logs
	if err := p.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start dbwipes: %w", err)
	}
	go func() {
		p.err = p.cmd.Wait()
		close(p.done)
	}()
	hc := &http.Client{Timeout: 2 * time.Second}
	tick := time.NewTicker(5 * time.Millisecond)
	defer tick.Stop()
	giveUp := time.After(120 * time.Second)
	for {
		if resp, err := hc.Get(p.base + "/api/tables"); err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return p, nil
			}
		}
		select {
		case <-tick.C:
		case <-p.done:
			return nil, fmt.Errorf("dbwipes exited before it was ready: %v\n%s", p.err, p.logs.String())
		case <-giveUp:
			p.kill()
			return nil, fmt.Errorf("dbwipes not ready after 120s\n%s", p.logs.String())
		case <-ctx.Done():
			p.kill()
			return nil, ctx.Err()
		}
	}
}

// stop asks the server to shut down cleanly (SIGTERM: drain, flush and
// close the store) and waits for it; a server that ignores the signal
// for 20 s is killed. A non-zero exit is an error: dbwipes exits 1 when
// closing the store fails.
func (p *serverProc) stop() error {
	select {
	case <-p.done:
		return fmt.Errorf("dbwipes had already exited: %v\n%s", p.err, p.logs.String())
	default:
	}
	_ = p.cmd.Process.Signal(syscall.SIGTERM) // an exited process is handled by the wait below
	select {
	case <-p.done:
		if p.err != nil {
			return fmt.Errorf("dbwipes shutdown: %w\n%s", p.err, p.logs.String())
		}
		return nil
	case <-time.After(20 * time.Second):
		p.kill()
		return errors.New("dbwipes ignored SIGTERM for 20s; killed")
	}
}

func (p *serverProc) kill() {
	_ = p.cmd.Process.Kill() // already-exited is fine
	<-p.done
}

// procUsage reads a process's peak resident set (VmHWM) and the CPU
// time it has used so far from /proc.
func procUsage(pid int) (rssPeakMB, cpuSeconds float64, err error) {
	status, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, 0, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, 0, fmt.Errorf("parse VmHWM %q: %w", line, err)
			}
			rssPeakMB = kb / 1024
		}
	}
	stat, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// the 14th and 15th of the whole line, in clock ticks (100 Hz on
	// Linux whatever the kernel's HZ).
	i := strings.LastIndexByte(string(stat), ')')
	f := strings.Fields(string(stat[i+1:]))
	if i < 0 || len(f) < 13 {
		return 0, 0, fmt.Errorf("parse /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, 0, fmt.Errorf("parse /proc/%d/stat times", pid)
	}
	return rssPeakMB, (ut + st) / 100, nil
}

// selfCPUSeconds is the harness's own user+system CPU time so far.
func selfCPUSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.Type().IsRegular() {
			info, err := d.Info()
			if err != nil {
				return err
			}
			total += info.Size()
		}
		return nil
	})
	return total, err
}
