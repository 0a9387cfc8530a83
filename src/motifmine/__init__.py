"""motifmine: daily mobility motif mining from geo-located point records."""
