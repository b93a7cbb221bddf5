package perf

// EvaluateAllSteps is evaluateAll for the external tests: EvaluateAll
// with the bisection steps it took.
var EvaluateAllSteps = evaluateAll
