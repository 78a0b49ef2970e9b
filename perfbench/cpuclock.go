package main

import (
	"syscall"
	"time"
)

// processCPU is the CPU time all of the process's threads have used so
// far (user plus system). On a paravirtualised guest the kernel leaves
// out the time the host ran someone else, which wall time includes.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
