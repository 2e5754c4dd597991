"""Spill regulation testbed.

Simulates the spill intensity of a slow-extraction beamline, regulates it
with a discrete PID controller, and trains a PID-structured stochastic
policy with PPO to push the spill duty factor beyond the tuned baseline.

Modules:
    spillsim     surrogate spill environment (ripple + Ornstein-Uhlenbeck noise)
    controllers  discrete PID, gain tuning, and the linear/NN policy heads
    gradnet      minimal dense-network toolkit with exact reverse-mode gradients
    policy       the policy heads' Gaussian base and PPO's minibatch objective
    ppo          rollout collection, GAE, clipped-surrogate updates, training loop
    metrics      spill duty factor, reward shaping, improvement reports
    cli          command line entry points
"""

__version__ = "0.1.0"
