"""Adaptive radar detection with an EM-estimated mixture detector.

The package implements a joint Bayesian/ML detector for a partially
homogeneous Gaussian interference scene — an EM iteration over the latent
target-presence class with closed-form covariance/amplitude updates — next
to the classical adaptive detectors (GLRT, AMF, Rao, ACE) and a
clairvoyant benchmark, plus the Monte Carlo machinery to characterize
them: threshold calibration, CFAR sweeps, Pd curves, mismatched-target
contours, and convergence traces.

The API is the modules listed in README's module map (embml.harness,
embml.cube and so on); import names from the module that defines them.
"""

__version__ = "1.0.0"
