//go:build !faultinject

package faults

import "context"

// BuildEnabled reports whether this binary was built with the faultinject
// tag and can therefore inject faults at all.
const BuildEnabled = false

// The hooks below are the production build's empty stubs: no plan storage,
// no branches, inlined away at every call site.

// PointFault injects nothing in a production build.
func PointFault(index, attempt int) error { return nil }

// FFDecline injects nothing in a production build.
func FFDecline() bool { return false }

// RequestFault injects nothing in a production build.
func RequestFault(ordinal int) {}

// CacheCorrupt injects nothing in a production build.
func CacheCorrupt() bool { return false }

// ServiceStall injects nothing in a production build.
func ServiceStall(ctx context.Context) {}

// CancelStep injects nothing in a production build.
func CancelStep() uint64 { return 0 }

// NoteStepCancel injects nothing in a production build.
func NoteStepCancel() {}
