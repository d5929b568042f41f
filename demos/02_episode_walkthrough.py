"""One simulated episode, step by step.

The robot climbs toward its goal while an obstacle sweeps across the track
at height 25. The scripted policy waits below the danger zone until the
obstacle has passed, then climbs. Both phases are visible in the trace.
"""

from depgrid import ScriptedPolicy, presets, run_episode


class Recording:
    """A policy that acts as ``inner`` does and keeps each second's
    observation and action: True for forward, False for backward."""

    def __init__(self, inner):
        self.inner = inner
        self.trace = []

    def reset(self):
        self.inner.reset()
        self.trace = []

    def act(self, obs):
        action = self.inner.act(obs)
        self.trace.append((obs, action))
        return action


env = presets.default_env()
policy = Recording(ScriptedPolicy(presets.default_policy_params(), env))

# a scenario is its (v, t, y) coordinates: obstacle at 4 in/s starting at
# t=2; goal height 35
x = (4.0, 2.0, 35.0)
v, t, y = x
seed = 20

print(f"scenario: v={x[0]}, t={x[1]}, y={x[2]}")
print()
print(f"{'time':>4} {'robot':>6} {'edge':>8} {'action':>9}   note")

record = run_episode(env, policy, x, seed)
passed_reported = False
for time, (obs, action) in enumerate(policy.trace):
    # the true leading edge; the policy senses it with noise
    edge = env.obstacle_spawn_offset - v * max(0.0, time - t)
    note = ""
    trailing = obs.obstacle_pos_noisy + env.obstacle_width
    if trailing < 0 and not passed_reported:
        note = "<- obstacle perceived as passed"
        passed_reported = True
    if time <= 8 or 20 <= time <= 34 or note:
        step = "forward" if action else "backward"
        print(f"{time:>4} {obs.robot_pos:>6.1f} "
              f"{edge:>8.2f} {step:>9}   {note}")
    elif time in (9, 35):
        print("  ...")

highest = max([obs.robot_pos for obs, _ in policy.trace]
              + [record.final_position])
print()
print(f"finished at t={record.steps}: mode={record.mode.value}, "
      f"final position {record.final_position}, highest point {highest}")

# the episode is a pure function of its inputs: a fresh policy replays it
again = run_episode(env, ScriptedPolicy(presets.default_policy_params(), env),
                    x, seed)
print(f"a fresh policy agrees: mode={again.mode.value}, steps={again.steps}")

# a high goal latches the impatient branch and ends in a collision; its
# second is the record's steps, the episode's last
risky = run_episode(env, ScriptedPolicy(presets.default_policy_params(), env),
                    (4.0, 2.0, 48.0), seed)
print(f"goal 48 instead: mode={risky.mode.value}, "
      f"collision at t={risky.steps}")
