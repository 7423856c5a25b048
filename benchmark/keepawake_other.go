//go:build !linux

package main

const idleSpinFlag = "idle-spin"

// keepAwake does nothing off Linux; see keepawake_linux.go.
func keepAwake(int) (stop func()) { return func() {} }

func idleSpin() {}
