//go:build !amd64

package main

// cpuModel is only read from the processor on amd64.
func cpuModel() string { return "unknown" }
