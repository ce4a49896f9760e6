package main

import (
	"encoding/binary"
	"strings"
)

// cpuid executes the CPUID instruction (cpu_amd64.s).
func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

// cpuModel returns the processor brand string from CPUID leaves
// 0x80000002-4, read from the processor itself rather than from a host file.
func cpuModel() string {
	if max, _, _, _ := cpuid(0x80000000, 0); max < 0x80000004 {
		return "unknown"
	}
	var buf []byte
	for leaf := uint32(0x80000002); leaf <= 0x80000004; leaf++ {
		a, b, c, d := cpuid(leaf, 0)
		for _, r := range []uint32{a, b, c, d} {
			buf = binary.LittleEndian.AppendUint32(buf, r)
		}
	}
	return strings.TrimSpace(strings.TrimRight(string(buf), "\x00"))
}
