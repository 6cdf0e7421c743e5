package main

import (
	"bufio"
	"fmt"
	"net"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// daemon is one qservd process, started with default flags (-data and
// -addr only).
type daemon struct {
	cmd  *exec.Cmd
	addr string
	log  *os.File
}

// clkTck is USER_HZ, the unit of utime/stime in /proc/<pid>/stat (100 on
// every Linux architecture Go supports).
const clkTck = 100

func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := l.Addr().String()
	return addr, l.Close()
}

func startDaemon(bin, snap, logPath string) (*daemon, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	log, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, "-data", snap, "-addr", addr)
	cmd.Stdout, cmd.Stderr = log, log
	// The daemon must not outlive a benchmark that is killed mid-run.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		log.Close()
		return nil, fmt.Errorf("servebench: start qservd: %w", err)
	}
	return &daemon{cmd: cmd, addr: addr, log: log}, nil
}

// waitHealthy polls /healthz until it answers or the timeout passes.
func (d *daemon) waitHealthy(c *client, timeout time.Duration) error {
	end := time.Now().Add(timeout)
	for time.Now().Before(end) {
		if c.healthy() {
			return nil
		}
		time.Sleep(2 * time.Millisecond)
	}
	return fmt.Errorf("servebench: qservd at %s not healthy after %v (see %s)", d.addr, timeout, d.log.Name())
}

// stop kills the process and waits for it to exit.
func (d *daemon) stop() {
	if d == nil {
		return
	}
	d.cmd.Process.Kill()
	d.cmd.Wait()
	d.log.Close()
}

// cpuSeconds is the process's user+system CPU time so far.
func (d *daemon) cpuSeconds() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line.
	s := string(b)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("servebench: short /proc stat line")
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("servebench: bad /proc stat line")
	}
	return float64(ut+st) / clkTck, nil
}

// memMB reads a VmHWM/VmRSS-style field of /proc/<pid>/status in MiB.
func (d *daemon) memMB(field string) (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, field+":") {
			fs := strings.Fields(line)
			kb, err := strconv.ParseFloat(fs[1], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("servebench: %s not in /proc status", field)
}
