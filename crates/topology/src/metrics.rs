//! Graph analysis used to validate generated topologies.
//!
//! The convergence results of the paper hinge on the overlay being
//! connected: [`is_connected`] / [`connected_components`] check weak
//! connectivity, the necessary condition for gossip averaging to converge
//! to the true mean. The generator tests use them as their oracle.

use crate::graph::Graph;
use std::collections::VecDeque;

/// Returns the weakly connected component id of every node.
///
/// Weak connectivity treats every directed edge as bidirectional, which is
/// the right notion for push-pull gossip: an exchange moves information in
/// both directions regardless of which endpoint initiated it.
pub fn connected_components(g: &Graph) -> Vec<usize> {
    let n = g.node_count();
    // Build reverse adjacency once so the scan is O(V + E).
    let mut reverse: Vec<Vec<u32>> = vec![Vec::new(); n];
    for (u, v) in g.edges() {
        reverse[v].push(u as u32);
    }
    let mut component = vec![usize::MAX; n];
    let mut current = 0;
    let mut queue = VecDeque::new();
    for start in 0..n {
        if component[start] != usize::MAX {
            continue;
        }
        component[start] = current;
        queue.push_back(start);
        while let Some(u) = queue.pop_front() {
            for &v in g.neighbors(u) {
                let v = v as usize;
                if component[v] == usize::MAX {
                    component[v] = current;
                    queue.push_back(v);
                }
            }
            for &v in &reverse[u] {
                let v = v as usize;
                if component[v] == usize::MAX {
                    component[v] = current;
                    queue.push_back(v);
                }
            }
        }
        current += 1;
    }
    component
}

/// Returns `true` if the graph is weakly connected (and non-empty).
pub fn is_connected(g: &Graph) -> bool {
    if g.node_count() == 0 {
        return false;
    }
    let components = connected_components(g);
    components.iter().all(|&c| c == 0)
}

/// Number of weakly connected components.
pub fn component_count(g: &Graph) -> usize {
    connected_components(g)
        .iter()
        .copied()
        .max()
        .map_or(0, |m| m + 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::GraphBuilder;

    fn path_graph(n: usize) -> Graph {
        let mut b = GraphBuilder::new(n);
        for i in 0..n - 1 {
            b.add_undirected_edge(i, i + 1);
        }
        b.build()
    }

    #[test]
    fn connectivity_of_path() {
        let g = path_graph(10);
        assert!(is_connected(&g));
        assert_eq!(component_count(&g), 1);
    }

    #[test]
    fn disconnected_components_counted() {
        let mut b = GraphBuilder::new(6);
        b.add_undirected_edge(0, 1);
        b.add_undirected_edge(2, 3);
        // 4 and 5 isolated.
        let g = b.build();
        assert!(!is_connected(&g));
        assert_eq!(component_count(&g), 4);
        let comp = connected_components(&g);
        assert_eq!(comp[0], comp[1]);
        assert_eq!(comp[2], comp[3]);
        assert_ne!(comp[0], comp[2]);
        assert_ne!(comp[4], comp[5]);
    }

    #[test]
    fn weak_connectivity_follows_reverse_edges() {
        // 0 -> 1, 2 -> 1: weakly connected even though 1 has no out-edges.
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1);
        b.add_edge(2, 1);
        let g = b.build();
        assert!(is_connected(&g));
    }

    #[test]
    fn empty_graph_is_not_connected() {
        let g = GraphBuilder::new(0).build();
        assert!(!is_connected(&g));
        assert_eq!(component_count(&g), 0);
    }
}
