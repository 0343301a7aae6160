"""sonsim: deterministic simulator for super-peer semantic overlay networks.

Builds a synthetic overlay of peers grouped under super-peers, routes queries
either by two-level semantic mapping or through decision-tree indices held by
knowledge nodes, and measures response time, precision and recall against an
exhaustive relevance oracle.
"""
