"""Self-similar solutions and blowup diagnostics for a two-component
Degasperis-Procesi shallow-water system, plus a manufactured-solution
verification lab and a periodic pseudo-spectral reference solver."""
