"""Hybrid-controlled-trial estimators and their Monte Carlo harness.

Simulates randomized trials whose control arm is augmented with
historical control pools, applies frequentist (propensity matching and
weighting, mixed models, stratified power priors) and Bayesian
(meta-analytic predictive priors) borrowing estimators, and summarizes
operating characteristics across replicates.
"""
