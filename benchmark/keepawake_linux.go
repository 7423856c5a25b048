package main

import (
	"os"
	"os/exec"
	"runtime"
	"syscall"
	"unsafe"
)

const idleSpinFlag = "idle-spin"

// keepAwake starts one spinner process per core at the kernel's idle
// priority, which runs only when a CPU has nothing else to do, and
// returns the function that stops them and waits until they have ended.
//
// On a virtual machine a CPU that goes idle is halted, and the
// hypervisor may take long to bring it back: a second goroutine started
// after a single-threaded stretch then shares the first one's core for
// tens of milliseconds, sometimes for a whole run, and every parallel
// timing measures the hypervisor (DOALL's run_ms read 14 ms or 23 ms
// from one run to the next on the host this was written on). With no CPU
// ever idle, the timings are the program's. If a spinner cannot be
// started the run goes on without it.
func keepAwake(cores int) (stop func()) {
	self, err := os.Executable()
	if err != nil {
		return func() {}
	}
	var spinners []*exec.Cmd
	for i := 0; i < cores; i++ {
		cmd := exec.Command(self, "--"+idleSpinFlag)
		// A spinner must never outlive the run, however the run ends.
		cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
		if cmd.Start() == nil {
			spinners = append(spinners, cmd)
		}
	}
	return func() {
		for _, cmd := range spinners {
			cmd.Process.Kill()
			cmd.Wait()
		}
	}
}

// idleSpin is the spinner: it drops itself to SCHED_IDLE (or, failing
// that, the lowest nice level) and burns its CPU until it is killed or
// its parent is gone.
func idleSpin() {
	// Priorities belong to threads: stay on the one that gets lowered.
	runtime.LockOSThread()
	const schedIdle = 5
	param := struct{ priority int32 }{}
	if _, _, errno := syscall.Syscall(syscall.SYS_SCHED_SETSCHEDULER, 0, schedIdle, uintptr(unsafe.Pointer(&param))); errno != 0 {
		syscall.Setpriority(syscall.PRIO_PROCESS, 0, 19)
	}
	parent := os.Getppid()
	for os.Getppid() == parent {
		for x, i := uint64(1), 0; i < 50_000_000; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
	}
	os.Exit(0)
}
