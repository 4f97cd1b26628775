//go:build !linux

package main

import (
	"os"
	"os/exec"
)

// setDeathSignal is Linux-only; elsewhere children are only stopped by
// their caps.
func setDeathSignal(*exec.Cmd) {}

// maxRSSMB is measured on Linux only; elsewhere peak_rss_mb reads 0.
func maxRSSMB(*os.ProcessState) float64 { return 0 }
