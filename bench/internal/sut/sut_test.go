package sut

import "testing"

func TestParseProc(t *testing.T) {
	// The command name may hold spaces and parentheses.
	stat := "4242 (turbo (flux) serve) S 1 4242 4242 0 -1 4194560 900 0 0 0 731 269 0 0 20 0 9 0 100 2000 300"
	ticks, err := parseStatTicks(stat)
	if err != nil || ticks != 1000 {
		t.Errorf("parseStatTicks = %d, %v; want utime+stime = 1000", ticks, err)
	}
	if _, err := parseStatTicks("garbage"); err == nil {
		t.Error("a malformed stat line must be an error")
	}
	status := "Name:\tx\nVmPeak:\t  900 kB\nVmHWM:\t  524288 kB\nVmRSS:\t 100 kB\n"
	if got := parseStatusKB(status, "VmHWM:"); got != 524288 {
		t.Errorf("VmHWM = %v kB", got)
	}
}
