"""Personalized federated learning over heterogeneous feature spaces.

Clients whose raw features live in spaces of different dimension learn
private embeddings into a shared latent space by aligning their
class-conditional distributions with learnable Gaussian anchors
(closed-form W2), while a shared representation layer and per-client
heads are trained FedRep-style under partial participation.
"""
