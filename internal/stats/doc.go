// Package stats provides the statistical substrate for the Rubik
// reproduction: equal-width empirical distributions (PMFs) with
// conditioning, streaming histograms that profile them, the packed FFT
// pipeline behind the repeated convolutions of Rubik's target tail
// tables, Gaussian tail
// approximations for long queues, quantile and correlation helpers,
// random-variate samplers for the synthetic workloads, and rolling
// time-window accumulators used by the measurement and feedback paths.
//
// Everything in this package is deterministic given a seeded
// math/rand.Rand and uses only the standard library. The naive
// convolution chain the packed pipeline replaced lives on as a test
// oracle in the oracle subpackage.
package stats
