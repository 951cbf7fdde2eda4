// Package sut starts, observes and stops the system-under-test processes:
// the real turboflux-serve and turboflux-shard binaries. Observation is
// from outside only — the listen address a process prints, and its CPU
// time and peak RSS from /proc.
package sut

import (
	"bufio"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// clockTick is USER_HZ: the unit of utime/stime in /proc/<pid>/stat. It
// is 100 on every Linux configuration Go supports.
const clockTick = 100

// Proc is one running process.
type Proc struct {
	Name string
	Addr string // listen address parsed from the "# serving on" banner
	cmd  *exec.Cmd
	log  *os.File
	done chan error // receives cmd.Wait's result once; buffered for the one send
}

// Start runs bin with args, sends its stderr to logPath, and waits until
// it prints its "# serving on <addr>" banner (both binaries print it once
// the listener is bound, after any initial-graph load) or ready expires.
func Start(name, bin string, args []string, logPath string, ready time.Duration) (*Proc, error) {
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, args...)
	cmd.Stderr = logf
	out, err := cmd.StdoutPipe()
	if err != nil {
		logf.Close() //tf:unchecked-ok already failing
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		logf.Close() //tf:unchecked-ok already failing
		return nil, fmt.Errorf("sut: start %s: %w", name, err)
	}
	p := &Proc{Name: name, cmd: cmd, log: logf, done: make(chan error, 1)}

	addrCh := make(chan string, 1) // one banner; the scanner never blocks on it
	//tf:goroutine sut-stdout-scan
	go func() {
		// Drains stdout until the process closes it, then reaps the
		// process; Stop waits on done, so this goroutine ends with it.
		sc := bufio.NewScanner(out)
		sent := false
		for sc.Scan() {
			line := sc.Text()
			fmt.Fprintln(logf, line)
			if rest, ok := strings.CutPrefix(line, "# serving on "); ok && !sent {
				sent = true
				addrCh <- strings.Fields(rest)[0]
			}
		}
		p.done <- cmd.Wait()
	}()

	select {
	case p.Addr = <-addrCh:
		return p, nil
	case err := <-p.done:
		p.log.Close() //tf:unchecked-ok already failing
		return nil, fmt.Errorf("sut: %s exited before serving (%v); see %s", name, err, logPath)
	case <-time.After(ready):
		p.Stop(time.Second) //tf:unchecked-ok already failing
		return nil, fmt.Errorf("sut: %s not serving after %s; see %s", name, ready, logPath)
	}
}

// Pid returns the process id.
func (p *Proc) Pid() int { return p.cmd.Process.Pid }

// Stop asks the process to shut down gracefully (SIGTERM), kills it if it
// has not exited after grace, and waits until it has ended. It returns the
// process's exit error for a graceful exit, and an error after a kill.
func (p *Proc) Stop(grace time.Duration) error {
	defer p.log.Close() //tf:unchecked-ok log file of a stopped process
	if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil && !errors.Is(err, os.ErrProcessDone) {
		return err
	}
	select {
	case err := <-p.done:
		return err
	case <-time.After(grace):
		p.cmd.Process.Kill() //tf:unchecked-ok the wait below reports the outcome
		<-p.done
		return fmt.Errorf("sut: %s killed after %s without exiting", p.Name, grace)
	}
}

// Usage is a process's resource use so far.
type Usage struct {
	CPU    time.Duration // user + system
	PeakMB float64       // VmHWM
}

// ReadUsage reads pid's CPU time and peak resident set from /proc.
func ReadUsage(pid int) (Usage, error) {
	stat, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return Usage{}, err
	}
	ticks, err := parseStatTicks(string(stat))
	if err != nil {
		return Usage{}, err
	}
	status, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return Usage{}, err
	}
	return Usage{
		CPU:    time.Duration(ticks) * (time.Second / clockTick),
		PeakMB: parseStatusKB(string(status), "VmHWM:") / 1024,
	}, nil
}

// parseStatTicks extracts utime+stime (fields 14 and 15) from a
// /proc/<pid>/stat line; the command name, field 2, may contain spaces
// and parentheses, so fields are counted from the last ')'.
func parseStatTicks(stat string) (int64, error) {
	i := strings.LastIndexByte(stat, ')')
	if i < 0 {
		return 0, errors.New("sut: malformed /proc stat line")
	}
	f := strings.Fields(stat[i+1:])
	if len(f) < 13 {
		return 0, errors.New("sut: short /proc stat line")
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, errors.New("sut: non-numeric cpu time in /proc stat line")
	}
	return utime + stime, nil
}

func parseStatusKB(status, key string) float64 {
	for _, line := range strings.Split(status, "\n") {
		if rest, ok := strings.CutPrefix(line, key); ok {
			f := strings.Fields(rest)
			if len(f) > 0 {
				v, _ := strconv.ParseFloat(f[0], 64)
				return v
			}
		}
	}
	return 0
}
