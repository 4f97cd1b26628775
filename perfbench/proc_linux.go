//go:build linux

package main

import (
	"os"
	"os/exec"
	"syscall"
)

// setDeathSignal has the kernel kill cmd if the benchmark dies first, so
// no child outlives a killed run.
func setDeathSignal(cmd *exec.Cmd) {
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
}

// maxRSSMB is an exited process's peak resident set in MB (2^20 bytes);
// Linux reports ru_maxrss in KiB.
func maxRSSMB(ps *os.ProcessState) float64 {
	ru, ok := ps.SysUsage().(*syscall.Rusage)
	if !ok {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}
