//! A recurrent network: an LSTM unit (built exactly as in the paper's
//! Figure 6 from ensembles and recurrent connections), unrolled through
//! time and trained on a toy sequence-classification task: report at
//! which of the `STEPS` time steps the "hot" input arrived.
//!
//! ```text
//! cargo run --release --example lstm_sequence
//! ```

use latte::core::dsl::{Ensemble, Net};
use latte::core::{compile, OptLevel};
use latte::nn::layers::{fully_connected, softmax_loss};
use latte::nn::rnn::lstm;
use latte::runtime::data::synthetic_sequences;
use latte::runtime::Executor;

const STEPS: usize = 4;
const WIDTH: usize = 6;
const HIDDEN: usize = 12;
const BATCH: usize = 8;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // One-step network: x -> LSTM(h). Recurrent edges mark the h/C
    // feedback.
    let mut step_net = Net::new(BATCH);
    let x = step_net.add(Ensemble::data("x", vec![WIDTH]));
    let unit = lstm(&mut step_net, "lstm", x, HIDDEN, 5);
    let _ = unit;

    // Unroll through time: parameters are shared across steps, so
    // gradients accumulate across time (BPTT).
    let mut net = step_net.unroll(STEPS);

    // Classification head on the final hidden state.
    let last_h = net
        .find(&format!("lstm_h@t{}", STEPS - 1))
        .expect("unrolled output ensemble");
    let logits = fully_connected(&mut net, "head", last_h, STEPS, 77);
    let label = net.add(Ensemble::data("label", vec![1]));
    softmax_loss(&mut net, "loss", logits, label);

    let compiled = compile(&net, &OptLevel::full())?;
    println!(
        "unrolled LSTM: {} ensembles, {} forward groups, {} shared-parameter aliases",
        net.len(),
        compiled.forward.len(),
        compiled.stats.aliased_buffers
    );
    let mut exec = Executor::new(compiled)?;

    let items = synthetic_sequences(STEPS, WIDTH, 512, 13);
    let feed = |exec: &mut Executor,
                chunk: &[(Vec<f32>, f32)]|
     -> Result<(), Box<dyn std::error::Error>> {
        // Split each item's concatenated sequence into per-step inputs.
        for t in 0..STEPS {
            let mut step_in = Vec::with_capacity(BATCH * WIDTH);
            for (xs, _) in chunk {
                step_in.extend_from_slice(&xs[t * WIDTH..(t + 1) * WIDTH]);
            }
            exec.set_input(&format!("x@t{t}"), &step_in)?;
        }
        let labels: Vec<f32> = chunk.iter().map(|(_, y)| *y).collect();
        exec.set_input("label", &labels)?;
        Ok(())
    };

    let mut initial = None;
    for epoch in 0..8 {
        let mut epoch_loss = 0.0;
        let mut batches = 0;
        for chunk in items.chunks(BATCH) {
            if chunk.len() < BATCH {
                break;
            }
            feed(&mut exec, chunk)?;
            exec.forward();
            epoch_loss += exec.loss();
            batches += 1;
            exec.backward();
            exec.for_each_param_mut(|v, g, lr_mult| {
                for (vi, gi) in v.iter_mut().zip(g) {
                    *vi -= 0.05 * lr_mult * gi;
                }
            });
        }
        let mean = epoch_loss / batches as f32;
        if initial.is_none() {
            initial = Some(mean);
        }
        println!("epoch {epoch}: mean loss {mean:.4}");
    }

    // Accuracy on fresh sequences.
    let test = synthetic_sequences(STEPS, WIDTH, 128, 101);
    let mut correct = 0;
    let mut total = 0;
    for chunk in test.chunks(BATCH) {
        if chunk.len() < BATCH {
            break;
        }
        feed(&mut exec, chunk)?;
        exec.forward();
        let out = exec.read_buffer("head.value")?;
        for (i, (_, label)) in chunk.iter().enumerate() {
            let row = &out[i * STEPS..(i + 1) * STEPS];
            let pred = row
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
                .map(|(j, _)| j)
                .unwrap_or(0);
            if pred == *label as usize {
                correct += 1;
            }
            total += 1;
        }
    }
    println!(
        "sequence accuracy: {:.1}% ({correct}/{total})",
        100.0 * correct as f32 / total as f32
    );
    Ok(())
}
