"""Desk-scale laboratory for un-pruning sparse neural networks.

Removes the influence of deleted training data from both the weights and
the pruned topology (mask) of a sparse model, with pluggable unlearning
methods, a retrain+reprune oracle, mask-similarity metrics and a
membership-inference fragility study.

The package root exports nothing: import each name from its module,
``unprune.<module>``.
"""
