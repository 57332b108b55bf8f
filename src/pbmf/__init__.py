"""Matrix-factorization recommender toolkit with a position-bias penalty.

Trains latent-factor models by wave-batched SGD in three flavors (plain dot
product, cosine-normalized, and cosine with a penalty pulling scores toward
the uniform click probability 1/m), plus random/Zipf placement baselines and
an evaluation harness for MAE, Matthew degree and the position-bias metric.
"""
