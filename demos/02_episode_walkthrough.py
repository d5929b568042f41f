"""One simulated episode, step by step.

The robot climbs toward its goal while an obstacle sweeps across the track
at height 25. The scripted policy waits below the danger zone until the
obstacle has passed, then climbs. Both phases are visible in the trace.
"""

import numpy as np

from depgrid import (
    ScriptedPolicy,
    classify,
    init,
    presets,
    run_episode,
    step,
)
from depgrid.simulator import _observation

env = presets.default_env()
policy = ScriptedPolicy(presets.default_policy_params(), env)

# a scenario is its (v, t, y) coordinates: obstacle at 4 in/s starting at
# t=2; goal height 35
x = (4.0, 2.0, 35.0)
seed = 20

print(f"scenario: v={x[0]}, t={x[1]}, y={x[2]}")
print()
print(f"{'time':>4} {'robot':>6} {'edge':>8} {'action':>9}   note")

policy.reset()
state = init(env, x)
rng = np.random.Generator(np.random.PCG64(seed))
noise = rng.standard_normal((env.episode_seconds, 3))
passed_reported = False
while not state.collided and state.time < env.episode_seconds:
    obs = _observation(env, state, noise[state.time])
    action = policy.act(obs)
    note = ""
    trailing = obs.obstacle_pos_noisy + env.obstacle_width
    if trailing < 0 and not passed_reported:
        note = "<- obstacle perceived as passed"
        passed_reported = True
    if state.time <= 8 or 20 <= state.time <= 34 or note:
        print(f"{state.time:>4} {state.robot_pos:>6.1f} "
              f"{state.obstacle_leading_edge:>8.2f} {action.value:>9}   {note}")
    elif state.time in (9, 35):
        print("  ...")
    state = step(env, state, action)

mode = classify(env, state)
print()
print(f"finished at t={state.time}: mode={mode.value}, "
      f"final position {state.robot_pos}, highest point {state.max_robot_pos}")

# the same episode through the one-call API is identical
record = run_episode(env, ScriptedPolicy(presets.default_policy_params(), env),
                     x, seed)
print(f"run_episode agrees: mode={record.mode.value}, steps={record.steps}")

# a high goal latches the impatient branch and ends in a collision
risky = run_episode(env, ScriptedPolicy(presets.default_policy_params(), env),
                    (4.0, 2.0, 48.0), seed)
print(f"goal 48 instead: mode={risky.mode.value}, "
      f"collision at t={risky.collision_time}")
