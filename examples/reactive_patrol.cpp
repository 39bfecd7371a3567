// Reactive guards: the §3.2 multi-tick + reactive-programming showcase.
// Guards walk a four-leg patrol written with waitNextTick (the compiler
// desugars it into a PC state machine); a `when` handler interrupts the
// patrol (restart) whenever an intruder comes close, and physics carries
// the actual movement. Demonstrates: multi-tick scripts, interruptible
// intentions, handlers, physics integration, and the effect tracer.
//
// Run: ./build/examples/reactive_patrol [ticks]

#include <cstdio>
#include <cstdlib>

#include "src/debug/tracer.h"
#include "src/engine/engine.h"

namespace {

const char* kProgram = R"sgl(
class Guard {
  state:
    number x = 0;
    number y = 0;
    number vx = 0;
    number vy = 0;
    number alert_count = 0;
  effects:
    number fx : sum;
    number fy : sum;
    number alerted : sum;
  update:
    alert_count = alert_count + alerted;
}

class Intruder {
  state:
    number x = 0;
    number y = 0;
}

// Four-leg box patrol: each leg lasts one tick of acceleration; the guard
// coasts between (physics owns the motion).
script Patrol for Guard {
  fx <- 2; fy <- 0;
  waitNextTick;
  fx <- 0; fy <- 2;
  waitNextTick;
  fx <- -2; fy <- 0;
  waitNextTick;
  fx <- 0; fy <- -2;
}

// Intruder nearby? Sound the alarm, brake hard, and restart the patrol
// (the interrupted intention resumes from its first leg, §3.2).
when Guard Spot (alert_count == 0) {
  accum number near with sum over Intruder i from Intruder {
    if (i.x >= x - 15 && i.x <= x + 15 && i.y >= y - 15 && i.y <= y + 15) {
      near <- 1;
    }
  } in {
    if (near > 0) {
      alerted <- 1;
      fx <- -vx;
      fy <- -vy;
      restart Patrol;
    }
  }
}
)sgl";

}  // namespace

int main(int argc, char** argv) {
  int ticks = argc > 1 ? std::atoi(argv[1]) : 30;
  auto engine_or = sgl::Engine::Create(kProgram);
  if (!engine_or.ok()) {
    std::fprintf(stderr, "%s\n", engine_or.status().ToString().c_str());
    return 1;
  }
  auto engine = std::move(engine_or).value();

  sgl::PhysicsConfig physics;
  physics.cls = "Guard";
  physics.max_speed = 4;
  physics.damping = 0.9;
  physics.min_x = 0;
  physics.min_y = 0;
  physics.max_x = 200;
  physics.max_y = 200;
  physics.resolve_collisions = false;
  if (!engine->AddPhysics(physics).ok()) return 1;

  auto guard = engine->Spawn("Guard", {{"x", sgl::Value::Number(50)},
                                       {"y", sgl::Value::Number(50)}});
  engine->Spawn("Intruder", {{"x", sgl::Value::Number(68)},
                             {"y", sgl::Value::Number(58)}})
      .value();

  sgl::EffectTracer tracer;
  tracer.Watch(*guard);
  engine->SetTracer(&tracer);

  std::printf("%6s %8s %8s %8s %8s %8s\n", "tick", "x", "y", "pc", "alerts",
              "effects");
  for (int t = 0; t < ticks; ++t) {
    size_t before = tracer.size();
    if (!engine->Tick().ok()) return 1;
    std::printf("%6d %8.1f %8.1f %8.0f %8.0f %8zu\n", t,
                engine->Get(*guard, "x")->AsNumber(),
                engine->Get(*guard, "y")->AsNumber(),
                engine->Get(*guard, "__pc_Patrol")->AsNumber(),
                engine->Get(*guard, "alert_count")->AsNumber(),
                tracer.size() - before);
  }

  std::printf("\n== effects assigned to the guard in tick 0 (tracer) ==\n");
  for (const sgl::TraceRecord& rec : tracer.RecordsFor(*guard, 0)) {
    const sgl::ClassDef& def = engine->catalog().Get(rec.target_cls);
    std::printf("  %s <- %s\n",
                def.effect_field(rec.field).name.c_str(),
                rec.value.ToValue().ToString().c_str());
  }
  return 0;
}
