"""Attention-based GRU translation with a lexicon-derived memory component."""
