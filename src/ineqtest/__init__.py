"""Bayesian and frequentist tests of inequality hypotheses.

Four ingredients: a Gaussian limit experiment where posterior-probability
tests can be studied exactly (limit_experiment), stochastic dominance
testing with Bayesian-bootstrap posteriors and frequentist p-values
(stochastic_dominance), a translog cost-function curvature test
(translog), and a reproducible replication harness (mc_harness).
"""
