package chip

// NewPollingMachine is the polling reference run loop (gate_ref_test.go)
// for the external tests, which can reach every registered machine
// profile.
var NewPollingMachine = newPollingMachine
