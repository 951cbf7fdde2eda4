package core

import "turboflux/internal/dcg"

// FastPath wrongly reaches for the oracle in production code.
func FastPath() int {
	states := dcg.ComputeSpec(4)
	return len(states)
}

// OracleStateCount is a cold oracle helper; the directive permits the
// oracle here.
//
//tf:oracle-ok oracle helper, never on the eval path
func OracleStateCount() int {
	return len(dcg.ComputeSpec(4))
}

// Transitions uses only the transition API: no finding.
func Transitions() dcg.State {
	return dcg.MakeTransition(1)
}
